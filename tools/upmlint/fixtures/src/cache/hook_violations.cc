// UPMLint fixture: seeded hook-discipline violations.
//
// `aud`, `tr` and `inj` are the simulator's zero-overhead-when-off
// hook pointers: every dereference must be dominated by a null check,
// also when it goes through a bundle (`hooks.aud->` needs a test of
// `hooks.aud`). Tagged lines fire; the guarded forms below them must
// not.

namespace upm::fixture {

struct FakeAuditor
{
    void noteAlloc(int a, int b);
    void noteFree(int a);
};

struct FakeTracer
{
    void emit(int kind);
    int emitted();
};

struct FakeInjector
{
    bool shouldFail(int site);
};

struct FakeHooks
{
    FakeAuditor *aud = nullptr;
    FakeTracer *tr = nullptr;
    FakeInjector *inj = nullptr;
};

class Hooked
{
  public:
    void
    unguarded()
    {
        aud->noteAlloc(1, 2);            // upmlint-expect: hooks
        tr->emit(3);                     // upmlint-expect: hooks
        if (inj->shouldFail(0))          // upmlint-expect: hooks
            aud->noteFree(1);            // upmlint-expect: hooks
    }

    void
    wrongGuard()
    {
        if (aud) {
            aud->noteAlloc(1, 2);        // guarded: no finding
        } else {
            tr->emit(1);                 // upmlint-expect: hooks
        }
        if (!tr)
            tr->emit(2);                 // upmlint-expect: hooks
    }

    void
    guardedForms()
    {
        if (aud)
            aud->noteAlloc(1, 2);
        if (aud != nullptr)
            aud->noteFree(3);
        if (tr) {
            tr->emit(1);
            int n = tr->emitted();
            (void)n;
        }
        if (inj && inj->shouldFail(4))
            return;
        if (!aud)
            return;
        aud->noteFree(5);                // early-return guard above
    }

    void
    guardedEarlyReturnForms(bool quiet)
    {
        if (quiet || tr == nullptr)
            return;
        tr->emit(6);                     // disjunctive early return
        if (aud == nullptr) {
            tr->emit(7);
            return;
        }
        aud->noteFree(8);                // block-form early return
        if (!inj && quiet)
            inj->shouldFail(9);          // upmlint-expect: hooks
    }

    void
    nestedGuardDoesNotDominate(bool quiet)
    {
        if (quiet) {
            if (!tr)
                return;
        }
        tr->emit(10);                    // upmlint-expect: hooks
    }

    void
    guardedLoops()
    {
        if (tr) {
            for (int i = 0; i < 4; ++i)
                tr->emit(i);
        }
    }

    void
    throughBundle(const FakeHooks &hooks)
    {
        hooks.aud->noteFree(1);          // upmlint-expect: hooks
        if (aud)
            hooks.aud->noteFree(2);      // upmlint-expect: hooks
        if (hooks.tr)
            tr->emit(3);                 // upmlint-expect: hooks
        if (!hooks.inj)
            hooks.inj->shouldFail(4);    // upmlint-expect: hooks
        if (hooks.tr)
            hooks.tr->emit(5);           // guarded: no finding
        if (hooks.inj && hooks.inj->shouldFail(6))
            return;
        if (hooks.tr != nullptr && quietBundle(hooks))
            hooks.tr->emit(7);
        if (!hooks.aud)
            return;
        hooks.aud->noteAlloc(8, 9);      // early-return guard above
    }

    static bool quietBundle(const FakeHooks &hooks);

  private:
    FakeAuditor *aud = nullptr;
    FakeTracer *tr = nullptr;
    FakeInjector *inj = nullptr;
};

} // namespace upm::fixture

"""The four UPMLint checkers.

Each checker is a function `check_<name>(src, project)` yielding
`Finding` tuples. The project model (built by the driver from every
file in the tree) carries the cross-file knowledge the checkers need:
which functions return a must-check status, which identifiers are
unordered containers, and which fields are lock-guarded.

Contracts enforced (see DESIGN.md section 12):

* status-discipline -- a call to a `Status`/`hipError_t`-returning
  function, a `try*` API, or any `[[nodiscard]]` function must not be
  a bare expression statement. Casting to `(void)` is an explicit,
  reviewable discard and is allowed.
* determinism -- simulation layers must not read wall clocks or
  non-seeded randomness, must not iterate unordered containers (hash
  order is not part of simulated state), and must not key ordered
  containers by pointer (iteration order would depend on allocation
  addresses).
* hook-discipline -- every dereference of a zero-overhead-off hook
  pointer (`aud`, `tr`, `inj`, `cal`, `obs`, `pol`) must be dominated
  by a null check, so an unwired hook costs one branch and no call.
  A dereference through a bundle (`hooks.aud->`) must be dominated by
  a test of that same expression (`if (hooks.aud)`).
* lock-discipline -- mutex-holding classes use the annotated
  `upm::Mutex`/`upm::MutexLock` types from common/mutex.hh; fields
  annotated `UPM_GUARDED_BY(m)` are only touched in functions that
  visibly acquire `m` or are annotated `UPM_REQUIRES(m)`; bare
  `.lock()`/`.unlock()` calls only appear in annotated functions.
"""

from collections import namedtuple

from cxx import (IDENT, PUNCT, STRING, enclosing_blocks, match_paren,
                 statement_start)

Finding = namedtuple("Finding", ["path", "line", "checker", "message"])

# Layers bound by the determinism contract. bench/, tests/ and
# examples/ measure wall time and drive the simulator from outside, so
# they are exempt; common/rng is the one sanctioned randomness source.
SIM_LAYERS = ("src/vm/", "src/mem/", "src/cache/", "src/tlb/",
              "src/uvm/", "src/core/", "src/hip/", "src/trace/",
              "src/sched/", "src/serve/", "src/policy/")

HOOK_POINTERS = ("aud", "tr", "inj", "cal", "obs", "pol")

UNORDERED_TYPES = ("unordered_map", "unordered_set", "unordered_multimap",
                   "unordered_multiset")

WALL_CLOCK_IDENTS = ("system_clock", "steady_clock",
                     "high_resolution_clock", "random_device",
                     "gettimeofday", "clock_gettime", "srand", "drand48")

LOCK_ANNOTATIONS = ("UPM_REQUIRES", "UPM_ACQUIRE", "UPM_RELEASE",
                    "UPM_ACQUIRE_SHARED", "UPM_RELEASE_SHARED",
                    "UPM_NO_THREAD_SAFETY_ANALYSIS")

RAII_GUARDS = ("MutexLock", "lock_guard", "unique_lock", "scoped_lock",
               "shared_lock")


def _sim_layer(path):
    p = path.replace("\\", "/")
    return any(("/" + layer) in ("/" + p) or p.startswith(layer)
               for layer in SIM_LAYERS)


# ---------------------------------------------------------------- status


def check_status(src, project):
    """Flag discarded calls to status-returning / nodiscard functions."""
    toks = src.tokens
    for i, t in enumerate(toks):
        if t.kind != IDENT or t.text not in project.status_functions:
            continue
        if i + 1 >= len(toks) or toks[i + 1].text != "(":
            continue
        close = match_paren(toks, i + 1)
        if close < 0 or close + 1 >= len(toks):
            continue
        if toks[close + 1].text != ";":
            continue  # result consumed (assigned, returned, compared...)
        s = statement_start(toks, i)
        if not _is_bare_call_prefix(toks, s, i):
            continue
        if src.suppressed("status", t.line):
            continue
        yield Finding(src.path, t.line, "status",
                      "return value of '%s' is ignored; assign it, check "
                      "it, or cast to (void) with a reason" % t.text)


def _is_bare_call_prefix(toks, start, name_idx):
    """True when toks[start:name_idx] is just an object path.

    `rt.hipFree(p);` or `as->munmap(b);` or `upm::foo(x);` prefixes
    qualify; `Status s = f(x);`, `return f(x);`, `(void)f(x);` and
    declarations (`Status munmap(...)`) do not.
    """
    path_punct = (".", "->", "::", "*", ")")
    prev_ident = False
    i = start
    while i < name_idx:
        t = toks[i]
        if t.kind == IDENT:
            if t.text in ("return", "co_return", "case", "goto", "void",
                          "if", "while", "for", "switch", "delete", "new",
                          "throw", "else", "do"):
                return False
            if prev_ident:
                return False  # two adjacent idents: a declaration
            prev_ident = True
        elif t.text in path_punct:
            prev_ident = False
        else:
            return False  # operator/assignment: result is consumed
        i += 1
    # A declaration has an identifier (the return type) directly before
    # the function name with no member/scope connector.
    if name_idx > start and toks[name_idx - 1].kind == IDENT:
        return False
    return True


# ------------------------------------------------------------ determinism


def check_determinism(src, project):
    if not _sim_layer(src.path):
        return
    toks = src.tokens
    unordered = project.unordered_names_for(src.path)
    for i, t in enumerate(toks):
        if t.kind != IDENT:
            continue
        nxt = toks[i + 1].text if i + 1 < len(toks) else ""
        prev = toks[i - 1].text if i > 0 else ""
        if t.text in WALL_CLOCK_IDENTS:
            if not src.suppressed("determinism", t.line):
                yield Finding(src.path, t.line, "determinism",
                              "'%s' is a nondeterministic source; derive "
                              "randomness from common/rng seeds and time "
                              "from the simulated clock" % t.text)
            continue
        if t.text == "rand" and nxt == "(" and prev not in (".", "->"):
            if not src.suppressed("determinism", t.line):
                yield Finding(src.path, t.line, "determinism",
                              "'rand()' is unseeded global randomness; use "
                              "common/rng")
            continue
        if t.text == "time" and nxt == "(" and _is_wall_time_call(toks, i):
            if not src.suppressed("determinism", t.line):
                yield Finding(src.path, t.line, "determinism",
                              "'time()' reads the wall clock; simulation "
                              "layers must use simulated time")
            continue
        if t.text in UNORDERED_TYPES and nxt == "<" and \
                _pointer_key(toks, i + 1):
            if not src.suppressed("determinism", t.line):
                yield Finding(src.path, t.line, "determinism",
                              "pointer-keyed container: hashes/ordering "
                              "depend on allocation addresses; key by a "
                              "stable id instead")
            continue
        if t.text in ("map", "set", "multimap", "multiset") and \
                nxt == "<" and prev == "::" and _pointer_key(toks, i + 1):
            if not src.suppressed("determinism", t.line):
                yield Finding(src.path, t.line, "determinism",
                              "pointer-keyed ordered container: iteration "
                              "order depends on allocation addresses; key "
                              "by a stable id instead")
            continue
        if t.text == "for" and nxt == "(":
            target = _range_for_target(toks, i)
            if target and target.text in unordered and \
                    not src.suppressed("determinism", target.line):
                yield Finding(src.path, target.line, "determinism",
                              "range-for over unordered container '%s': "
                              "hash order leaks into simulated state; "
                              "iterate a sorted copy of the keys" %
                              target.text)
            continue
        if t.text in ("begin", "cbegin") and nxt == "(" and \
                prev in (".", "->") and i >= 2 and \
                toks[i - 2].kind == IDENT and toks[i - 2].text in unordered:
            if not src.suppressed("determinism", t.line):
                yield Finding(src.path, t.line, "determinism",
                              "iterator walk over unordered container "
                              "'%s': hash order leaks into simulated "
                              "state; iterate a sorted copy of the keys" %
                              toks[i - 2].text)


def _is_wall_time_call(toks, i):
    """`time(nullptr)` / `time(NULL)` / `time(0)` / `std::time(...)`."""
    if i >= 2 and toks[i - 1].text == "::" and toks[i - 2].text == "std":
        return True
    close = match_paren(toks, i + 1)
    if close == i + 3 and toks[i + 2].text in ("nullptr", "NULL", "0"):
        return True
    return False


def _pointer_key(toks, lt_idx):
    """True when the first template argument ends in `*`."""
    depth = 0
    j = lt_idx
    while j < len(toks):
        txt = toks[j].text
        if txt == "<":
            depth += 1
        elif txt in (">", ">>"):
            depth -= 2 if txt == ">>" else 1
            if depth <= 0:
                return False
        elif txt == "," and depth == 1:
            return toks[j - 1].text == "*"
        elif txt in ("(", ";", "{"):
            return False
        j += 1
    return False


def _range_for_target(toks, for_idx):
    """Terminal identifier of the range expression, or None."""
    close = match_paren(toks, for_idx + 1)
    if close < 0:
        return None
    depth = 0
    colon = -1
    for j in range(for_idx + 1, close):
        txt = toks[j].text
        if txt in ("(", "[", "{"):
            depth += 1
        elif txt in (")", "]", "}"):
            depth -= 1
        elif txt == ":" and depth == 1 and toks[j].kind == PUNCT and \
                toks[j - 1].text != ":" and toks[j + 1].text != ":":
            colon = j
            break
    if colon < 0:
        return None
    last_ident = None
    for j in range(colon + 1, close):
        if toks[j].kind == IDENT:
            last_ident = toks[j]
        elif toks[j].text == "(":
            # A call in the range expression: its name is not the
            # container (e.g. `keys(map)`), give up on the simple rule
            # unless the call is `.items()`-style, which C++ lacks.
            return None
    return last_ident


# ---------------------------------------------------------------- hooks


def check_hooks(src, project):
    toks = src.tokens
    for i, t in enumerate(toks):
        if t.kind != IDENT or t.text not in HOOK_POINTERS:
            continue
        if i + 1 >= len(toks) or toks[i + 1].text != "->":
            continue
        expr = [t.text]
        start = i
        if i > 1 and toks[i - 1].text == "." and toks[i - 2].kind == IDENT:
            # Through a bundle: `hooks.aud->` must be guarded by a test
            # of `hooks.aud` itself.
            expr = [toks[i - 2].text, ".", t.text]
            start = i - 2
        if start > 0 and toks[start - 1].text in (".", "->", "::"):
            continue  # member of some other object
        if _hook_guarded(toks, start, expr):
            continue
        if src.suppressed("hooks", t.line):
            continue
        name = "".join(expr)
        yield Finding(src.path, t.line, "hooks",
                      "dereference of hook pointer '%s' is not dominated "
                      "by a null check; wrap it in `if (%s)` to keep the "
                      "zero-overhead-when-off contract" % (name, name))


def _is_expr(toks, k, expr):
    """Do toks[k:] spell the hook expression `expr` (a token-text list:
    `aud`, or `hooks . aud`), not as a member of some other object?"""
    if k + len(expr) > len(toks) or toks[k].kind != IDENT:
        return False
    if any(toks[k + n].text != e for n, e in enumerate(expr)):
        return False
    return k == 0 or toks[k - 1].text not in (".", "->", "::")


def _cond_guards(cond, expr):
    """Does a condition token list positively test `expr`?"""
    for k in range(len(cond)):
        if not _is_expr(cond, k, expr):
            continue
        if k > 0 and cond[k - 1].text == "!":
            continue
        after = k + len(expr)
        if after < len(cond) and cond[after].text == "==" and \
                after + 1 < len(cond) and \
                cond[after + 1].text in ("nullptr", "NULL", "0"):
            continue
        if after < len(cond) and cond[after].text in (".", "->"):
            continue  # hook->x inside the condition is not a test
        return True
    return False


def _hook_guarded(toks, idx, expr):
    # Same-statement guard: `tr && tr->...`, `tr ? tr->... : ...`, and
    # the single-statement `if (tr) tr->...;` form.
    s = statement_start(toks, idx)
    n = len(expr)
    j = s
    while j < idx:
        t = toks[j]
        if t.kind == IDENT and t.text == "if" and j + 1 < idx and \
                toks[j + 1].text == "(":
            close = match_paren(toks, j + 1)
            if 0 < close < idx and _cond_guards(toks[j + 1 : close + 1],
                                                expr):
                return True
            # When idx sits inside this condition, keep scanning the
            # condition tokens themselves (covers `inj && inj->...`).
            j = close + 1 if 0 < close < idx else j + 1
            continue
        if _is_expr(toks, j, expr) and j + n < idx and \
                toks[j + n].text in ("&&", "?") and \
                (j == 0 or toks[j - 1].text != "!"):
            return True
        if _is_expr(toks, j, expr) and j + n + 1 < idx and \
                toks[j + n].text == "!=" and \
                toks[j + n + 1].text in ("nullptr", "NULL") and \
                j + n + 2 < idx and toks[j + n + 2].text == "&&":
            return True
        j += 1

    # Enclosing `if`/`while` blocks whose condition tests the hook.
    blocks = enclosing_blocks(toks, idx)
    for blk in blocks:
        cond = blk.control
        if cond and cond[0].kind == IDENT and cond[0].text in ("if",
                                                              "while") and \
                _cond_guards(cond[1:], expr):
            return True

    # Early-return guard earlier in an enclosing block:
    # `if (!hook) return;`, `if (hook == nullptr) { ...; return x; }`,
    # and the disjunctive form `if (other || !hook) return;` (any true
    # disjunct returns, so past the `if` the hook is non-null). Closed
    # nested blocks are skipped: a guard inside an earlier function or
    # branch does not dominate this dereference.
    for blk in blocks:
        j = blk.open_idx
        while j < idx:
            t = toks[j]
            if t.text == "{" and j != blk.open_idx:
                close = match_paren(toks, j)
                if 0 < close < idx:
                    j = close + 1
                    continue
            if t.kind == IDENT and t.text == "if" and j + 1 < idx and \
                    toks[j + 1].text == "(":
                close = match_paren(toks, j + 1)
                if close < 0 or close >= idx:
                    break
                cond = toks[j + 2 : close]
                if _cond_rejects(cond, expr) and \
                        _guard_diverts(toks, close + 1, idx):
                    return True
                j = close + 1
                continue
            j += 1
    return False


def _cond_rejects(cond, expr):
    """Condition is false whenever `expr` is non-null: a negative test
    of the hook combined only by `||` at the top level."""
    negative_at = -1
    depth = 0
    for k, c in enumerate(cond):
        if c.text in ("(", "[", "{"):
            depth += 1
        elif c.text in (")", "]", "}"):
            depth -= 1
        elif depth == 0 and c.text == "&&":
            return False  # a conjunction may pass with hook == nullptr
        if depth != 0 or not _is_expr(cond, k, expr):
            continue
        after = k + len(expr)
        if k > 0 and cond[k - 1].text == "!":
            negative_at = k
        elif after + 1 < len(cond) and cond[after].text == "==" and \
                cond[after + 1].text in ("nullptr", "NULL"):
            negative_at = k
        elif k > 1 and cond[k - 1].text == "==" and \
                cond[k - 2].text in ("nullptr", "NULL"):
            negative_at = k
    return negative_at >= 0


def _guard_diverts(toks, start, idx):
    """After a negative guard, control must leave the enclosing scope:
    a direct `return`/`continue`/`break` statement (not one nested in
    a further conditional) or a [[noreturn]] fatal()/panic() call."""
    diverting = ("return", "continue", "break", "fatal", "panic")
    k = start
    if k < idx and toks[k].kind == IDENT and toks[k].text in diverting:
        return True
    if k >= idx or toks[k].text != "{":
        return False
    close = match_paren(toks, k)
    limit = close if 0 < close < idx else idx
    for j in range(k + 1, limit):
        t = toks[j]
        if t.kind == IDENT and t.text in diverting and \
                toks[j - 1].text in ("{", "}", ";"):
            return True
    return False


# ---------------------------------------------------------------- locks


def check_locks(src, project):
    p = src.path.replace("\\", "/")
    if "common/mutex.hh" in p or "common/thread_annotations.hh" in p:
        return
    toks = src.tokens
    in_src = p.startswith("src/") or "/src/" in p

    for i, t in enumerate(toks):
        # L1: raw standard mutex members in simulator classes.
        if in_src and t.kind == IDENT and \
                t.text in ("mutex", "shared_mutex", "recursive_mutex",
                           "condition_variable", "condition_variable_any") \
                and i >= 2 and toks[i - 1].text == "::" and \
                toks[i - 2].text == "std" and i + 1 < len(toks) and \
                toks[i + 1].kind == IDENT and t.depth >= 1 and \
                not src.suppressed("locks", t.line):
            repl = "upm::CondVar" if "condition" in t.text else "upm::Mutex"
            yield Finding(src.path, t.line, "locks",
                          "raw std::%s member: use %s from "
                          "common/mutex.hh so clang -Wthread-safety can "
                          "see it" % (t.text, repl))

        # L3: bare lock()/unlock() outside annotated functions.
        if t.kind == IDENT and t.text in ("lock", "unlock", "try_lock") and \
                i + 1 < len(toks) and toks[i + 1].text == "(" and \
                i > 0 and toks[i - 1].text in (".", "->") and \
                not _mutex_like_receiver_exempt(toks, i) and \
                not _enclosing_function_annotated(toks, i) and \
                not src.suppressed("locks", t.line):
            yield Finding(src.path, t.line, "locks",
                          "bare .%s() call: hold locks via RAII "
                          "(upm::MutexLock) or annotate the function with "
                          "UPM_ACQUIRE/UPM_RELEASE/UPM_REQUIRES" % t.text)

    # L2: guarded fields touched without a visible acquisition.
    guarded = project.guarded_fields_for(src.path)
    if not guarded:
        return
    for i, t in enumerate(toks):
        if t.kind != IDENT or t.text not in guarded:
            continue
        nxt = toks[i + 1].text if i + 1 < len(toks) else ""
        if nxt == "UPM_GUARDED_BY" or (nxt == ";" and t.depth >= 1 and
                                       i > 0 and toks[i - 1].kind == IDENT):
            continue  # the declaration itself
        prev = toks[i - 1].text if i > 0 else ""
        if prev in (".", "::") or (prev == "->" and
                                   (i < 2 or toks[i - 2].text != "this")):
            continue  # member of some other object
        mutex = guarded[t.text]
        fn = _enclosing_function_body(toks, i)
        if fn is None:
            continue  # class scope: initializers, declarations
        if _function_holds(toks, fn, i, mutex):
            continue
        if src.suppressed("locks", t.line):
            continue
        yield Finding(src.path, t.line, "locks",
                      "field '%s' is UPM_GUARDED_BY(%s) but this function "
                      "neither acquires '%s' nor is annotated "
                      "UPM_REQUIRES(%s)" % (t.text, mutex, mutex, mutex))


def _mutex_like_receiver_exempt(toks, i):
    """`lk.unlock()` on a std::unique_lock-style guard object is RAII
    at heart; L3 targets direct mutex operations. We exempt receivers
    that were declared in the same function as unique_lock/MutexLock
    variables is overkill at token level, so exempt nothing -- except
    calls through `->` on iterators (`it->second.lock()` patterns do
    not appear in this tree)."""
    return False


def _function_signature(toks, body_open):
    """Tokens of the signature preceding a function body `{`."""
    j = body_open - 1
    # Walk back over init-lists / qualifiers until the parameter `)`.
    depth = 0
    while j >= 0:
        txt = toks[j].text
        if txt in (")", "]", ">"):
            depth += 1
        elif txt in ("(", "[", "<"):
            depth -= 1
        elif depth == 0 and txt in (";", "{", "}"):
            break
        j -= 1
    return toks[j + 1 : body_open]


def _looks_like_function_body(toks, blk):
    sig = _function_signature(toks, blk.open_idx)
    has_parens = any(t.text == "(" for t in sig)
    if not has_parens:
        return False
    # Class/struct/enum/namespace heads never contain a `)` directly
    # before the brace chain, but a base-class list can contain parens
    # is not valid C++; a control clause was already captured.
    if blk.control:
        return False
    for t in sig:
        if t.kind == IDENT and t.text in ("class", "struct", "enum",
                                          "namespace", "union"):
            return False
    return True


def _enclosing_function_body(toks, idx):
    blocks = enclosing_blocks(toks, idx)
    for blk in reversed(blocks):  # outermost first
        if _looks_like_function_body(toks, blk):
            return blk
    return None


def _enclosing_function_annotated(toks, idx):
    blk = _enclosing_function_body(toks, idx)
    if blk is None:
        return False
    sig = _function_signature(toks, blk.open_idx)
    return any(t.kind == IDENT and t.text in LOCK_ANNOTATIONS for t in sig)


def _function_holds(toks, body, idx, mutex):
    """Does the function visibly hold `mutex` before token idx?"""
    sig = _function_signature(toks, body.open_idx)
    for k, t in enumerate(sig):
        if t.kind == IDENT and t.text in ("UPM_REQUIRES", "UPM_ACQUIRE",
                                          "UPM_RELEASE"):
            return True
        if t.kind == IDENT and t.text == "UPM_NO_THREAD_SAFETY_ANALYSIS":
            return True
    for j in range(body.open_idx, idx):
        t = toks[j]
        if t.kind != IDENT:
            continue
        if t.text in RAII_GUARDS:
            return True
        if t.text == mutex and j + 2 < len(toks) and \
                toks[j + 1].text == "." and \
                toks[j + 2].text in ("lock", "try_lock"):
            return True
    return False

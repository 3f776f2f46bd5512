/**
 * @file
 * UPMBench harness: one workload, one mode, one JSON result line.
 *
 *   upmbench --workload serve|uvm_oversub|rodinia --seed N
 *            --seconds S --trace 0|1 [--spans PATH] [--break]
 *
 * Untraced (--trace 0): after one untimed warm-up pass, passes over the
 * workload's units repeat until S seconds have gone by (at least one);
 * the end-to-end metrics are medians over the timed passes. Traced (--trace 1): untraced and span-recording
 * passes alternate for S seconds, the per-layer metrics are medians
 * over the traced passes, and the workload's attribution step runs
 * once at the end. The last stdout line is the result object; metric
 * units are attached by run.py from BENCHMARK.json.
 */

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <vector>

#include "bench.hh"
#include "common/log.hh"
#include "exec/task_pool.hh"

using namespace upmbench;

namespace {

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "upmbench: %s\nusage: upmbench --workload "
                 "serve|uvm_oversub|rodinia --seed N --seconds S "
                 "--trace 0|1 [--spans PATH] [--break]\n",
                 why);
    std::exit(2);
}

Options
parse(int argc, char **argv)
{
    Options opt;
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                usage(("missing value for " + a).c_str());
            return argv[++i];
        };
        try {
            if (a == "--workload")
                opt.workload = value();
            else if (a == "--seed")
                opt.seed = std::stoull(value());
            else if (a == "--seconds")
                opt.seconds = std::stod(value());
            else if (a == "--trace")
                opt.trace = std::stoi(value()) != 0;
            else if (a == "--spans")
                opt.spansPath = value();
            else if (a == "--break")
                opt.breakInvariant = true;
            else
                usage(("unknown argument " + a).c_str());
        } catch (const std::logic_error &) {
            usage(("bad value for " + a).c_str());
        }
    }
    if (opt.workload.empty())
        usage("--workload is required");
    if (!(opt.seconds > 0.0))
        usage("--seconds must be positive");
    return opt;
}

std::unique_ptr<Runner>
makeRunner(const Options &opt)
{
    if (opt.workload == "serve")
        return makeServe(opt);
    if (opt.workload == "uvm_oversub")
        return makeUvmOversub(opt);
    if (opt.workload == "rodinia")
        return makeRodinia(opt);
    usage(("unknown workload " + opt.workload).c_str());
}

std::vector<double>
collect(const std::vector<PassResult> &passes,
        double (*f)(const PassResult &))
{
    std::vector<double> v;
    for (const PassResult &p : passes)
        v.push_back(f(p));
    return v;
}

int
run(const Options &opt)
{
    std::unique_ptr<Runner> runner = makeRunner(opt);
    upm::exec::setGlobalWorkers(runner->workers());

    // The warm-up pass fills the allocator's free lists and the
    // caches; it is checked like any other pass but not timed.
    const double t0 = wallNow();
    const PassResult warm = runner->pass();
    std::vector<PassResult> plain, traced;
    unsigned pass_index = 0;
    do {
        resetPeakRss();
        plain.push_back(runner->pass());
        plain.back().peakRssMb = peakRssMb();
        if (opt.trace) {
            spanLog().enable(pass_index++);
            {
                SpanScope root(kPassSpan, "", 0, -1);
                traced.push_back(runner->pass());
            }
            spanLog().disable();
        }
    } while (wallNow() - t0 < opt.seconds);

    std::uint64_t attempted = 0, failed = 0;
    std::vector<std::string> failures;
    const std::uint64_t digest = warm.digest;
    std::vector<PassResult> warm_set{warm};
    for (const auto *set : {&warm_set, &plain, &traced}) {
        for (const PassResult &p : *set) {
            attempted += p.ops;
            failed += p.failed;
            failures.insert(failures.end(), p.failures.begin(),
                            p.failures.end());
            if (p.digest != digest) {
                ++failed;
                failures.push_back(
                    "simulated outputs differ between passes of one "
                    "seed (" + hex64(p.digest) + " vs " +
                    hex64(digest) + ")");
            }
        }
    }

    Metrics out;
    if (!opt.trace) {
        out["wall_s"] = median(
            collect(plain, [](const PassResult &p) { return p.wallS; }));
        out["cpu_s"] = median(
            collect(plain, [](const PassResult &p) { return p.cpuS; }));
        out["setup_s"] = median(
            collect(plain, [](const PassResult &p) { return p.setupS; }));
        out["peak_rss_mb"] = median(collect(
            plain, [](const PassResult &p) { return p.peakRssMb; }));
        out["req_per_s"] = median(collect(plain, [](const PassResult &p) {
            return p.requests / p.wallS;
        }));
        out["pages_per_s"] = median(collect(
            plain, [](const PassResult &p) { return p.pages / p.wallS; }));
        out["runs_per_s"] = median(collect(plain, [](const PassResult &p) {
            return static_cast<double>(p.ops) / p.wallS;
        }));
    } else {
        const std::vector<Span> all = spanLog().spans();
        std::vector<Metrics> per_pass(traced.size());
        std::vector<double> self_frac;
        for (std::size_t k = 0; k < traced.size(); ++k) {
            std::vector<const Span *> mine;
            for (const Span &s : all) {
                if (s.pass == k)
                    mine.push_back(&s);
            }
            per_pass[k] = runner->layerMetrics(mine, traced[k]);
            self_frac.push_back(selfFraction(mine));
        }
        for (const auto &[name, unused] : per_pass.front()) {
            (void)unused;
            std::vector<double> v;
            for (const Metrics &m : per_pass)
                v.push_back(m.at(name));
            out[name] = median(v);
        }
        out["bench.self_frac"] = median(self_frac);
        out["trace.overhead"] =
            median(collect(traced,
                           [](const PassResult &p) { return p.wallS; })) /
                median(collect(
                    plain, [](const PassResult &p) { return p.wallS; })) -
            1.0;

        Attribution attr = runner->attribute(out);
        attempted += attr.ops;
        failed += attr.failed;
        failures.insert(failures.end(), attr.failures.begin(),
                        attr.failures.end());
        for (const auto &[name, v] : attr.metrics)
            out[name] = v;

        if (!opt.spansPath.empty() && !spanLog().writeChrome(opt.spansPath))
            std::fprintf(stderr, "upmbench: cannot write spans to %s\n",
                         opt.spansPath.c_str());
    }

    std::printf("upmbench: workload %s, seed %" PRIu64
                ", %zu untraced + %zu traced pass(es)\n",
                opt.workload.c_str(), opt.seed, plain.size(),
                traced.size());
    for (const auto *set : {&plain, &traced}) {
        for (const PassResult &p : *set) {
            std::printf("  %s pass: wall %.4f s, cpu %.4f s, setup %.6f s, "
                        "peak rss %.1f MiB\n",
                        set == &plain ? "untraced" : "traced", p.wallS,
                        p.cpuS, p.setupS, p.peakRssMb);
        }
    }
    for (const std::string &f : failures)
        std::printf("FAIL: %s\n", f.c_str());
    std::printf("sim_digest: %s %s\n", opt.workload.c_str(),
                hex64(digest).c_str());

    std::printf("{\"correct\": %s, \"attempted\": %" PRIu64
                ", \"failed\": %" PRIu64 ", \"metrics\": {",
                failed == 0 ? "true" : "false", attempted, failed);
    bool first = true;
    for (const auto &[name, v] : out) {
        std::printf("%s\"%s\": %.17g", first ? "" : ", ", name.c_str(), v);
        first = false;
    }
    std::printf("}}\n");
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt = parse(argc, argv);
    upm::setQuiet(true);
    try {
        return run(opt);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "upmbench: aborted: %s\n", e.what());
        return 1;
    }
}

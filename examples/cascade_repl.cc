/// \file
/// The cascade command-line tool: a Verilog REPL (paper §3.1). With a file
/// argument it runs in batch mode; without one it reads eval's from stdin,
/// stepping the program between inputs so IO side effects appear live.
///
/// Flight recorder:
///   cascade_repl --record session.jsonl [program.v]   record the session
///   cascade_repl --replay session.jsonl               re-execute it and
///                                                     diff every output
///   cascade_repl --replay a.jsonl --record b.jsonl    re-record while
///                                                     replaying (the CI
///                                                     determinism check
///                                                     diffs two of these)
/// Replay exit codes: 0 match, 1 load/usage error, 2 divergence.
///
/// Monitoring:
///   cascade_repl --monitor <port> [program.v]   serve /metrics /healthz
///                                               /slo /timeseries
///                                               /requests /events
///                                               on 127.0.0.1:<port>
///                                               (0 = pick an ephemeral
///                                               port and print it)

#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>

#include "runtime/repl.h"
#include "runtime/replay.h"
#include "runtime/runtime.h"

using cascade::runtime::Repl;
using cascade::runtime::ReplayOptions;
using cascade::runtime::ReplayReport;
using cascade::runtime::Runtime;

int
main(int argc, char** argv)
{
    std::string record_path;
    std::string replay_path;
    std::string input_path;
    int monitor_port = -1;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--record" && i + 1 < argc) {
            record_path = argv[++i];
        } else if (arg == "--replay" && i + 1 < argc) {
            replay_path = argv[++i];
        } else if (arg == "--monitor" && i + 1 < argc) {
            char* end = nullptr;
            const long port = std::strtol(argv[++i], &end, 10);
            if (end == nullptr || *end != '\0' || port < 0 ||
                port > 65535) {
                std::cerr << "--monitor needs a port in [0, 65535]\n";
                return 1;
            }
            monitor_port = static_cast<int>(port);
        } else if (arg == "--help" || arg == "-h") {
            std::cout << "usage: cascade_repl [--record <journal>] "
                         "[--replay <journal>] [--monitor <port>] "
                         "[program.v]\n";
            return 0;
        } else if (!arg.empty() && arg[0] == '-') {
            std::cerr << "unknown flag " << arg << " (try --help)\n";
            return 1;
        } else {
            input_path = arg;
        }
    }

    if (!replay_path.empty()) {
        ReplayOptions ropts;
        ropts.record_path = record_path;
        ropts.echo = true;
        const ReplayReport report =
            cascade::runtime::replay_journal(replay_path, ropts);
        std::cerr << report.summary() << "\n";
        if (!report.error.empty()) {
            return 1;
        }
        return report.diverged ? 2 : 0;
    }

    Runtime::Options options;
    options.compile_effort = 0.3;
    Runtime rt(options);
    if (monitor_port >= 0) {
        std::string err;
        if (!rt.monitor().start(static_cast<uint16_t>(monitor_port),
                              &err)) {
            std::cerr << "cannot start monitor: " << err << "\n";
            return 1;
        }
        std::cerr << "monitoring on 127.0.0.1:" << rt.monitor().port()
                  << " (/metrics /healthz /slo /timeseries /requests "
                     "/events)\n";
    }
    if (!record_path.empty()) {
        std::string err;
        if (!rt.start_recording(record_path, &err)) {
            std::cerr << "cannot record: " << err << "\n";
            return 1;
        }
    }
    Repl repl(&rt, &std::cout);

    if (!input_path.empty()) {
        std::ifstream file(input_path);
        if (!file) {
            std::cerr << "cannot open " << input_path << "\n";
            return 1;
        }
        const bool ok = repl.run_batch(file, 1u << 22);
        if (rt.recording()) {
            rt.stop_recording();
        }
        return ok ? 0 : 1;
    }

    std::cout << "Cascade: a JIT compiler for Verilog (type Verilog, "
                 ":help for meta-commands, ctrl-d to exit)\n";
    std::string line;
    bool announced_finish = false;
    while (true) {
        std::cout << repl.prompt() << std::flush;
        if (!std::getline(std::cin, line)) {
            break;
        }
        repl.feed(line + "\n");
        // Let the program run between inputs; side effects surface now.
        rt.run(512);
        if (rt.finished() && !announced_finish) {
            // Stay alive so :stats / :trace can inspect the finished run.
            std::cout << "($finish executed; :stats and :trace remain "
                         "available, ctrl-d to exit)\n";
            announced_finish = true;
        }
    }
    if (rt.recording()) {
        rt.stop_recording();
    }
    return 0;
}

/// \file
/// The journal's event vocabulary (`cascade.events.v1`). Each row sets an
/// event kind's type string, replay class, counter and trace instant;
/// Runtime::emit() and replay derive everything else from the row.

#ifndef CASCADE_RUNTIME_EVENTS_H
#define CASCADE_RUNTIME_EVENTS_H

#include <cstddef>
#include <cstdint>
#include <iterator>
#include <string_view>

namespace cascade::runtime {

/// How replay treats an event kind.
enum class ReplayClass : uint8_t {
    /// An API call replay re-executes in recorded order. Runtime::emit
    /// journals any coalesced api.step calls ahead of it.
    Input,
    Compared, ///< an output the replay must reproduce byte-for-byte
    Info,     ///< provenance only; replay ignores it
};

// X(id, type, replay class, counter or nullptr, trace instant or nullptr).
// The trace instant carries Runtime::emit's trace_arg.
#define CASCADE_EVENTS(X)                                                   \
    /* Also the input replay re-feeds; a rejected eval counts too. */       \
    X(Eval, "eval", Compared, nullptr, nullptr)                             \
    X(Rebuild, "rebuild", Compared, nullptr, nullptr)                       \
    X(InterruptEnqueue, "interrupt.enqueue", Compared, nullptr, nullptr)    \
    X(InterruptFlush, "interrupt.flush", Compared, nullptr, nullptr)        \
    X(MonitorLine, "monitor.line", Compared, "monitor.lines", nullptr)      \
    /* Carries the placement seed replay pins. */                           \
    X(CompileLaunch, "compile.launch", Compared, "compile.launched",        \
      "compile.launch")                                                     \
    X(CompileDone, "compile.done", Compared, nullptr, nullptr)              \
    /* Replay forces the error: a hypervisor denial cannot recur there. */  \
    X(CompileRejected, "compile.rejected", Compared, "compile.rejected",    \
      "compile.rejected")                                                   \
    X(Adopt, "adopt", Compared, "compile.adopted", nullptr)                 \
    X(JitLaunch, "jit.launch", Compared, "jit.launched", "jit.launch")      \
    /* The kernel digest is content-addressed, so deterministic. */         \
    X(JitAdopt, "jit.adopt", Compared, "jit.adopted", nullptr)              \
    /* No error text: it holds machine-dependent paths. */                  \
    X(JitUnavailable, "jit.unavailable", Compared, "jit.unavailable",       \
      "jit.unavailable")                                                    \
    /* Carries the grant size replay pins. */                               \
    X(OpenLoopGrant, "openloop.grant", Compared, nullptr, nullptr)          \
    /* Identical stimulus must produce an identical waveform file. */       \
    X(VcdDigest, "vcd.digest", Compared, nullptr, nullptr)                  \
    X(Finish, "finish", Compared, nullptr, "runtime.finish")                \
    /* Pinned by its iteration; value-free (peeks cross-check values). */   \
    X(DebugFire, "debug.fire", Compared, "debug.fires", "debug.fire")       \
    /* State divergence surfaces at the first replayed peek. */             \
    X(DebugPeek, "debug.peek", Compared, "debug.peeks", nullptr)            \
    X(DebugStep, "debug.step", Compared, nullptr, nullptr)                  \
    X(DebugResume, "debug.resume", Compared, nullptr, nullptr)              \
    /* Public step() calls, coalesced. */                                   \
    X(ApiStep, "api.step", Input, nullptr, nullptr)                         \
    X(ApiRun, "api.run", Input, nullptr, nullptr)                           \
    X(ApiRunTicks, "api.run_ticks", Input, nullptr, nullptr)                \
    /* Replay re-waits only a recorded success. */                          \
    X(ApiWaitHw, "api.wait_hw", Input, nullptr, nullptr)                    \
    X(ApiSetPad, "api.set_pad", Input, nullptr, nullptr)                    \
    /* Replay cross-checks the returned LED value itself. */                \
    X(ApiLed, "api.led", Input, nullptr, nullptr)                           \
    X(ApiFifoPush, "api.fifo_push", Input, nullptr, nullptr)                \
    X(ApiVcd, "api.vcd", Input, nullptr, nullptr)                           \
    X(ApiVcdClose, "api.vcd_close", Input, nullptr, nullptr)                \
    X(ApiProbe, "api.probe", Input, nullptr, nullptr)                       \
    X(ApiUnprobe, "api.unprobe", Input, nullptr, nullptr)                   \
    X(ApiProfiling, "api.profiling", Input, nullptr, nullptr)               \
    X(ApiDebugBreak, "api.debug_break", Input, nullptr, nullptr)            \
    X(ApiDebugWatch, "api.debug_watch", Input, nullptr, nullptr)            \
    X(ApiDebugDelete, "api.debug_delete", Input, nullptr, nullptr)          \
    X(ApiDebugStep, "api.debug_step", Input, nullptr, nullptr)              \
    X(ApiDebugContinue, "api.debug_continue", Input, nullptr, nullptr)      \
    X(ApiDebugPeek, "api.debug_peek", Input, nullptr, nullptr)              \
    /* What the user typed; eval records what was submitted. */             \
    X(ReplInput, "repl.input", Info, nullptr, nullptr)                      \
    X(Log, "log", Info, nullptr, nullptr)                                   \
    /* Who compiled first is a wall-clock artifact. */                      \
    X(CompileCache, "compile.cache", Info, nullptr, nullptr)                \
    X(JitCache, "jit.cache", Info, nullptr, nullptr)                        \
    /* A race when stale; an upgrade shows in the compared adopt. */        \
    X(JitDiscard, "jit.discard", Info, "jit.discarded", nullptr)            \
    /* The exclusive replay device never defers admission. */               \
    X(HypervisorDefer, "hypervisor.defer", Info, nullptr, nullptr)          \
    /* First-fit placement depends on the neighbors. */                     \
    X(HypervisorAdmit, "hypervisor.admit", Info, nullptr, nullptr)          \
    /* Replay pins it, but a debug fire may have evicted first. */          \
    X(HypervisorEvict, "hypervisor.evict", Info, nullptr,                   \
      "hypervisor.evict")                                                   \
    /* Exists only on sessions that dump a window. */                       \
    X(DebugWindow, "debug.window", Info, nullptr, nullptr)                  \
    X(DebugRearm, "debug.rearm", Info, nullptr, nullptr)                    \
    /* Request bookkeeping; replay pins no decision on it. */               \
    X(RequestDone, "request.done", Info, nullptr, nullptr)                  \
    X(SloBreach, "slo.breach", Info, nullptr, nullptr)

enum class EventKind : uint8_t {
#define CASCADE_EVENT_ID(id, ...) id,
    CASCADE_EVENTS(CASCADE_EVENT_ID)
#undef CASCADE_EVENT_ID
};

struct EventSpec {
    const char* type;
    ReplayClass replay;
    const char* counter; ///< counter bumped once per event, or nullptr
    const char* instant; ///< trace instant fired per event, or nullptr
};

inline constexpr EventSpec kEvents[] = {
#define CASCADE_EVENT_SPEC(id, type, replay, counter, instant)              \
    {type, ReplayClass::replay, counter, instant},
    CASCADE_EVENTS(CASCADE_EVENT_SPEC)
#undef CASCADE_EVENT_SPEC
};

inline constexpr size_t kEventKinds = std::size(kEvents);

/// The row for \p type, or nullptr for a type outside the vocabulary.
inline const EventSpec*
find_event(std::string_view type)
{
    for (const EventSpec& spec : kEvents) {
        if (type == spec.type) {
            return &spec;
        }
    }
    return nullptr;
}

} // namespace cascade::runtime

#endif // CASCADE_RUNTIME_EVENTS_H

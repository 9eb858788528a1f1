#include "runtime/hw_engine.h"

#include <algorithm>

#include "common/check.h"
#include "fpga/word_ops.h"
#include "sim/format.h"
#include "telemetry/telemetry.h"

namespace cascade::runtime {

namespace {

/// Hardware task readbacks ($display/$finish fired from the fabric) are
/// rare enough to record process-wide.
telemetry::Counter*
tasks_serviced_counter()
{
    static telemetry::Counter* const c =
        telemetry::Registry::global().counter("hw.tasks_serviced");
    return c;
}

} // namespace

HwEngine::HwEngine(std::unique_ptr<fpga::FabricExec> fabric,
                   ir::WrapperMap map, std::vector<std::string> port_names,
                   std::vector<bool> port_is_input,
                   EngineCallbacks* callbacks, double clock_mhz,
                   double mmio_latency_s)
    : fabric_(std::move(fabric)), map_(std::move(map)),
      port_is_input_(std::move(port_is_input)), callbacks_(callbacks),
      clock_period_s_(1.0 / (clock_mhz * 1e6)),
      mmio_latency_s_(mmio_latency_s)
{
    for (const std::string& name : port_names) {
        const ir::VarSlot* slot = map_.find(name);
        CASCADE_CHECK(slot != nullptr);
        port_slots_.push_back(slot);
        output_cache_.emplace_back(slot->width, 0);
    }
    in_clk_ = fabric_->input_index("CLK");
    in_rw_ = fabric_->input_index("RW");
    in_addr_ = fabric_->input_index("ADDR");
    in_in_ = fabric_->input_index("IN");
    out_out_ = fabric_->output_index("OUT");
    out_wait_ = fabric_->output_index("WAIT");
    CASCADE_CHECK(in_clk_ >= 0 && in_rw_ >= 0 && in_addr_ >= 0 &&
                  in_in_ >= 0 && out_out_ >= 0 && out_wait_ >= 0);
    slot_mem_.reserve(map_.vars.size());
    slot_reg_.reserve(map_.vars.size());
    for (const ir::VarSlot& slot : map_.vars) {
        const bool mem = slot.elems > 0;
        slot_mem_.push_back(slot.writable && mem ? fabric_->mem_index(slot.name)
                                                 : -1);
        slot_reg_.push_back(slot.writable && !mem && slot.width <= 64
                                ? fabric_->reg_index(slot.name)
                                : -1);
    }
    fabric_->set_input_word(in_rw_, 0);
    fabric_->eval_comb();
}

uint32_t
HwEngine::mmio_read(uint32_t addr)
{
    ++transactions_;
    fabric_->set_input_word(in_rw_, 0);
    fabric_->set_input_word(in_addr_, addr);
    fabric_->eval_comb();
    return static_cast<uint32_t>(fabric_->output_word(out_out_));
}

void
HwEngine::mmio_write(uint32_t addr, uint32_t value)
{
    ++transactions_;
    fabric_->set_input_word(in_rw_, 1);
    fabric_->set_input_word(in_addr_, addr);
    fabric_->set_input_word(in_in_, value);
    fabric_->set_input_word(in_clk_, 1);
    fabric_->step();
    fabric_->set_input_word(in_clk_, 0);
    fabric_->step();
    fabric_->set_input_word(in_rw_, 0);
    cycles_ += 2;
}

BitVector
HwEngine::read_var(const ir::VarSlot& slot, uint64_t element)
{
    BitVector v(slot.width, 0);
    const uint32_t base =
        slot.base + static_cast<uint32_t>(element) * slot.words;
    for (uint32_t j = 0; j < slot.words; j += 2) {
        uint64_t w = mmio_read(base + j);
        if (j + 1 < slot.words) {
            w |= uint64_t{mmio_read(base + j + 1)} << 32;
        }
        v.set_word(j / 2, w);
    }
    return v;
}

void
HwEngine::write_var(const ir::VarSlot& slot, const BitVector& value,
                    uint64_t element)
{
    const uint32_t base =
        slot.base + static_cast<uint32_t>(element) * slot.words;
    for (uint32_t j = 0; j < slot.words; ++j) {
        const uint64_t w = j / 2 < value.num_words() ? value.word(j / 2) : 0;
        mmio_write(base + j, static_cast<uint32_t>(w >> (32 * (j % 2))));
    }
}

void
HwEngine::write_mem(const ir::VarSlot& slot, uint64_t first,
                    const uint64_t* values, size_t count)
{
    const auto s = static_cast<size_t>(&slot - map_.vars.data());
    CASCADE_CHECK(s < map_.vars.size() && slot_mem_[s] >= 0 &&
                  slot.width <= 64);
    // A span written mid-grant would race the free-running design.
    CASCADE_CHECK(fabric_->output_word(out_wait_) == 0);
    if (fabric_->profiling() || fabric_->debug_armed()) {
        for (size_t k = 0; k < count; ++k) {
            write_var(slot, BitVector(slot.width, values[k]), first + k);
        }
        return;
    }
    fabric_->write_mem(slot_mem_[s], first, values, count);
    const uint64_t words = count * slot.words;
    transactions_ += words;
    cycles_ += 2 * words;
}

sim::StateSnapshot
HwEngine::get_state()
{
    sim::StateSnapshot snap;
    for (const ir::VarSlot& slot : map_.vars) {
        if (!slot.writable || slot.name[0] == '_') {
            continue;
        }
        if (slot.elems > 0) {
            std::vector<BitVector> contents;
            contents.reserve(slot.elems);
            for (uint32_t i = 0; i < slot.elems; ++i) {
                contents.push_back(read_var(slot, i));
            }
            snap.memories[slot.name] = std::move(contents);
        } else {
            snap.regs[slot.name] = read_var(slot);
        }
    }
    return snap;
}

void
HwEngine::set_state(const sim::StateSnapshot& snapshot)
{
    // Input ports first: a level the fabric has not seen (the clock high)
    // is an edge to the wrapped logic, which computes shadow updates and
    // task bits against registers not yet restored. Commit those updates,
    // overwrite them with the snapshot below, and drop the task bits: the
    // snapshot is the source of truth, and those side effects either
    // already happened in the retired engine or never happened at all.
    for (size_t p = 0; p < port_slots_.size(); ++p) {
        const auto it = snapshot.regs.find(port_slots_[p]->name);
        if (port_is_input_[p] && port_slots_[p]->writable &&
            it != snapshot.regs.end()) {
            write_var(*port_slots_[p], it->second);
        }
    }
    if (there_are_updates()) {
        mmio_write(map_.ctrl.latch, 1);
    }
    for (const auto& [name, value] : snapshot.regs) {
        const ir::VarSlot* slot = map_.find(name);
        if (slot != nullptr && slot->writable) {
            write_var(*slot, value);
        }
    }
    for (const auto& [name, contents] : snapshot.memories) {
        const ir::VarSlot* slot = map_.find(name);
        if (slot == nullptr || !slot->writable) {
            continue;
        }
        const size_t n = std::min<size_t>(contents.size(), slot->elems);
        if (slot->width <= 64 &&
            slot_mem_[static_cast<size_t>(slot - map_.vars.data())] >= 0) {
            std::vector<uint64_t> words(n);
            for (size_t i = 0; i < n; ++i) {
                words[i] = contents[i].to_uint64();
            }
            write_mem(*slot, 0, words.data(), n);
            continue;
        }
        for (size_t i = 0; i < n; ++i) {
            write_var(*slot, contents[i], i);
        }
    }
    if (!map_.tasks.empty() && mmio_read(map_.ctrl.tasks) != 0) {
        mmio_write(map_.ctrl.clear, 1);
    }
    task_pending_ = false;
    input_dirty_ = true;
}

void
HwEngine::read(const Event& event)
{
    const ir::VarSlot* slot = port_slots_[event.port];
    if (!slot->writable) {
        return; // output port: nothing to drive
    }
    write_var(*slot, event.value);
    input_dirty_ = true;
}

std::vector<Event>
HwEngine::write()
{
    std::vector<Event> events;
    for (size_t p = 0; p < port_slots_.size(); ++p) {
        if (port_is_input_[p]) {
            continue;
        }
        BitVector v = read_var(*port_slots_[p]);
        if (v != output_cache_[p]) {
            output_cache_[p] = v;
            events.push_back({static_cast<uint32_t>(p), std::move(v)});
        }
    }
    return events;
}

bool
HwEngine::there_are_evals()
{
    return input_dirty_ || task_pending_;
}

void
HwEngine::evaluate()
{
    // Combinational logic settles as part of every transaction; evaluate
    // only needs to surface pending system tasks.
    input_dirty_ = false;
    service_tasks();
}

bool
HwEngine::service_tasks()
{
    if (map_.tasks.empty()) {
        task_pending_ = false;
        return false;
    }
    const uint32_t pending = mmio_read(map_.ctrl.tasks);
    if (pending == 0) {
        task_pending_ = false;
        return false;
    }
    for (size_t k = 0; k < map_.tasks.size(); ++k) {
        if ((pending & (1u << k)) == 0) {
            continue;
        }
        const ir::TaskSite& site = map_.tasks[k];
        switch (site.kind) {
          case ir::TaskKind::Finish:
            finished_ = true;
            if (callbacks_ != nullptr) {
                callbacks_->on_finish();
            }
            break;
          case ir::TaskKind::Display:
          case ir::TaskKind::Write:
          case ir::TaskKind::Monitor: {
            std::vector<sim::DisplayValue> values;
            for (uint32_t slot_index : site.arg_slots) {
                const ir::VarSlot& slot = map_.vars[slot_index];
                sim::DisplayValue dv;
                dv.value = read_var(slot);
                dv.is_signed = slot.is_signed;
                values.push_back(std::move(dv));
            }
            const std::string text =
                site.has_format ? sim::format_display(site.format, values)
                                : sim::format_values(values);
            if (callbacks_ != nullptr) {
                if (site.kind == ir::TaskKind::Write) {
                    callbacks_->on_write(text);
                } else if (site.kind == ir::TaskKind::Monitor) {
                    // The fabric already gated this readback on an
                    // argument change (or first fire after handoff); the
                    // runtime's text compare does the final suppression so
                    // sw and hw engines print identical monitor lines.
                    callbacks_->on_monitor(site.key, text);
                } else {
                    callbacks_->on_display(text);
                }
            }
            break;
          }
        }
    }
    mmio_write(map_.ctrl.clear, 1);
    task_pending_ = false;
    tasks_serviced_counter()->inc();
    return true;
}

bool
HwEngine::there_are_updates()
{
    return mmio_read(map_.ctrl.updates) != 0;
}

void
HwEngine::update()
{
    mmio_write(map_.ctrl.latch, 1);
    // A committed update can trigger system tasks on the next evaluation.
    task_pending_ = !map_.tasks.empty();
    input_dirty_ = true;
}

void
HwEngine::stop_on_drain(const ir::VarSlot* head, const ir::VarSlot* tail)
{
    const auto reg = [this](const ir::VarSlot* slot) {
        return slot == nullptr
                   ? -1
                   : slot_reg_[static_cast<size_t>(slot - map_.vars.data())];
    };
    drain_head_ = reg(head);
    drain_tail_ = reg(tail);
    if (drain_head_ < 0 || drain_tail_ < 0) {
        drain_head_ = drain_tail_ = -1;
        return;
    }
    drain_mask_ = fpga::fullmask(head->width);
}

uint64_t
HwEngine::open_loop(uint64_t max_iterations)
{
    drained_ = false;
    if (!supports_open_loop() || max_iterations == 0) {
        return 0;
    }
    mmio_write(map_.ctrl.oloop,
               static_cast<uint32_t>(
                   std::min<uint64_t>(max_iterations, 0x7fffffff)));
    // The fabric free-runs until the budget is exhausted or a task fires.
    // One open-loop iteration (clock toggle) happens per CLK rising edge,
    // i.e. one per two fabric cycles here.
    const uint64_t cycle_limit = 2 * max_iterations + 64;
    uint64_t cycles = 0;
    bool debug_stop = false;
    // The FIFO pops at most one element per tick, so it cannot drain in
    // fewer ticks than it holds elements: its pointers are read only
    // once that many have run.
    uint64_t ticks = 0;
    uint64_t drain_check = drain_head_ >= 0 ? 0 : ~uint64_t{0};
    fabric_->set_input_word(in_rw_, 0);
    while (cycles < cycle_limit) {
        fabric_->set_input_word(in_clk_, 1);
        fabric_->step();
        fabric_->set_input_word(in_clk_, 0);
        fabric_->step();
        cycles += 2;
        if (fabric_->output_word(out_wait_) == 0) {
            break;
        }
        if (fabric_->debug_fired() != 0) {
            debug_stop = true;
            break;
        }
        if (++ticks >= drain_check) {
            const uint64_t held = (fabric_->reg_word(drain_tail_) -
                                   fabric_->reg_word(drain_head_)) &
                                  drain_mask_;
            if (held == 0) {
                drained_ = true;
                break;
            }
            drain_check = ticks + held;
        }
    }
    cycles_ += cycles;
    const uint32_t itrs = mmio_read(map_.ctrl.itrs);
    if (debug_stop || drained_) {
        // A synthesized trigger fired mid-batch (cancel so the runtime
        // can halt at the firing cycle), or the FIFO drained (cancel so
        // the runtime can refill it). The cancel write resets the
        // iteration counter (read above, first), and the wrapper gates
        // _otick/_latch on the write cycle so cancelling neither ticks
        // the design clock nor auto-latches.
        mmio_write(map_.ctrl.oloop, 0);
    }
    if (service_tasks()) {
        task_pending_ = false;
    }
    // Output caches are stale after free-running.
    input_dirty_ = true;
    return itrs;
}

double
HwEngine::take_modeled_seconds()
{
    const double out =
        static_cast<double>(cycles_ - cycles_reported_) * clock_period_s_ +
        static_cast<double>(transactions_ - transactions_reported_) *
            mmio_latency_s_;
    cycles_reported_ = cycles_;
    transactions_reported_ = transactions_;
    return out;
}

} // namespace cascade::runtime

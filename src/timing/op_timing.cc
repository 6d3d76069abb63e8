#include "timing/op_timing.hh"

#include "machine/machine_spec.hh"
#include "obs/hw_counters.hh"

namespace recperf {

double
ModelTiming::totalSeconds() const
{
    double total = 0.0;
    for (const OpTiming &op : ops)
        total += op.seconds;
    return total;
}

double
ModelTiming::secondsByKind(OpKind kind) const
{
    double total = 0.0;
    for (const OpTiming &op : ops) {
        if (op.kind == kind)
            total += op.seconds;
    }
    return total;
}

double
ModelTiming::fractionByKind(OpKind kind) const
{
    double total = totalSeconds();
    return total > 0.0 ? secondsByKind(kind) / total : 0.0;
}

std::map<OpKind, double>
ModelTiming::breakdown() const
{
    std::map<OpKind, double> by_kind;
    for (const OpTiming &op : ops)
        by_kind[op.kind] += op.seconds;
    return by_kind;
}

double
ModelTiming::instructions() const
{
    double total = 0.0;
    for (const OpTiming &op : ops)
        total += op.instructions;
    return total;
}

double
ModelTiming::llcMpki() const
{
    double instr = instructions();
    if (instr <= 0.0)
        return 0.0;
    return static_cast<double>(dramLines()) / (instr / 1000.0);
}

uint64_t
ModelTiming::dramLines() const
{
    uint64_t lines = 0;
    for (const OpTiming &op : ops)
        lines += op.dramLines;
    return lines;
}

void
ModelTiming::accumulate(const ModelTiming &other)
{
    if (ops.empty()) {
        ops = other.ops;
        return;
    }
    if (ops.size() != other.ops.size()) {
        // Structure mismatch: fall back to kind-level accumulation by
        // appending; callers normally accumulate identical structures.
        ops.insert(ops.end(), other.ops.begin(), other.ops.end());
        return;
    }
    for (size_t i = 0; i < ops.size(); ++i) {
        OpTiming &dst = ops[i];
        const OpTiming &src = other.ops[i];
        dst.seconds += src.seconds;
        dst.computeSeconds += src.computeSeconds;
        dst.memorySeconds += src.memorySeconds;
        dst.dispatchSeconds += src.dispatchSeconds;
        dst.offloadSeconds += src.offloadSeconds;
        dst.transferBytes += src.transferBytes;
        dst.instructions += src.instructions;
        dst.cost += src.cost;
        dst.l1Lines += src.l1Lines;
        dst.l2Lines += src.l2Lines;
        dst.l3Lines += src.l3Lines;
        dst.dramLines += src.dramLines;
    }
}

double
emitOpSpans(obs::Tracer &tracer, const ModelTiming &timing, double t0,
            uint32_t tid, double scale)
{
    if (!tracer.enabled())
        return t0 + scale * timing.totalSeconds();
    double t = t0;
    for (const OpTiming &op : timing.ops) {
        double end = t + scale * op.seconds;
        tracer.span("op", op.name, t, end, tid,
                    {{"kind", opKindName(op.kind)}});
        t = end;
    }
    return t;
}

void
ModelTiming::scale(double inv_n)
{
    for (OpTiming &op : ops) {
        op.seconds *= inv_n;
        op.computeSeconds *= inv_n;
        op.memorySeconds *= inv_n;
        op.dispatchSeconds *= inv_n;
        op.offloadSeconds *= inv_n;
        op.transferBytes = static_cast<uint64_t>(op.transferBytes * inv_n);
        op.instructions *= inv_n;
        op.cost.flops *= inv_n;
        op.cost.bytesRead *= inv_n;
        op.cost.bytesWritten *= inv_n;
        op.l1Lines = static_cast<uint64_t>(op.l1Lines * inv_n);
        op.l2Lines = static_cast<uint64_t>(op.l2Lines * inv_n);
        op.l3Lines = static_cast<uint64_t>(op.l3Lines * inv_n);
        op.dramLines = static_cast<uint64_t>(op.dramLines * inv_n);
    }
}

void
recordTelemetry(obs::HwTelemetry &telemetry, const MachineSpec &machine,
                const ModelTiming &timing)
{
    obs::RooflineSpec roof;
    roof.machine = machine.name;
    roof.peakGflops = machine.peakGflops();
    roof.streamGBps = machine.dram.streamGBps();
    roof.gatherGBps = machine.dram.gatherGBps();
    telemetry.setRoofline(roof);

    for (const OpTiming &op : timing.ops) {
        obs::OpRecord rec;
        rec.kindName = opKindName(op.kind);
        rec.seconds = op.seconds;
        rec.flops = op.cost.flops;
        rec.bytesRead = op.cost.bytesRead;
        rec.bytesWritten = op.cost.bytesWritten;
        rec.instructions = op.instructions;
        rec.l1Lines = op.l1Lines;
        rec.l2Lines = op.l2Lines;
        rec.l3Lines = op.l3Lines;
        rec.dramLines = op.dramLines;
        rec.offloadSeconds = op.offloadSeconds;
        rec.transferBytes = op.transferBytes;
        telemetry.recordOp(rec);
    }
}

} // namespace recperf

#include "ops/op_cost.hh"

namespace recperf {

const char *
opKindName(OpKind kind)
{
    switch (kind) {
      case OpKind::FC: return "FC";
      case OpKind::SLS: return "SLS";
      case OpKind::Concat: return "Concat";
      case OpKind::BatchMM: return "BatchMM";
      case OpKind::Activation: return "Activation";
      case OpKind::Conv: return "Conv";
      case OpKind::Recurrent: return "Recurrent";
      case OpKind::Other: return "Other";
    }
    return "Unknown";
}

OpCost &
OpCost::operator+=(const OpCost &o)
{
    flops += o.flops;
    bytesRead += o.bytesRead;
    bytesWritten += o.bytesWritten;
    return *this;
}

double
OpCost::intensity() const
{
    return bytesRead > 0.0 ? flops / bytesRead : 0.0;
}

} // namespace recperf

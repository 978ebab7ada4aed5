#include "accel/ops.hh"

#include <cmath>

#include "common/logging.hh"

namespace mealib::accel {

const char *
name(AccelKind kind)
{
    switch (kind) {
      case AccelKind::AXPY:
        return "AXPY";
      case AccelKind::DOT:
        return "DOT";
      case AccelKind::GEMV:
        return "GEMV";
      case AccelKind::SPMV:
        return "SPMV";
      case AccelKind::RESMP:
        return "RESMP";
      case AccelKind::FFT:
        return "FFT";
      case AccelKind::RESHP:
        return "RESHP";
      default:
        panic("name: bad AccelKind ", static_cast<int>(kind));
    }
}

double
OpCall::flops() const
{
    const double cmul = complexData ? 4.0 : 1.0; // 4 real ops per cmul-ish
    switch (kind) {
      case AccelKind::AXPY:
        return 2.0 * static_cast<double>(n) * cmul;
      case AccelKind::DOT:
        return 2.0 * static_cast<double>(n) * cmul;
      case AccelKind::GEMV:
        return 2.0 * static_cast<double>(m) * static_cast<double>(n) *
               cmul;
      case AccelKind::SPMV:
        return 2.0 * static_cast<double>(k);
      case AccelKind::RESMP:
        // 2 ops per tap; taps by kernel kind (2 / 4 / 8).
        return 2.0 * static_cast<double>(m) * cmul *
               (resampleKind == 0 ? 2.0 : resampleKind == 1 ? 4.0 : 8.0);
      case AccelKind::FFT: {
        double pts = static_cast<double>(n) *
                     static_cast<double>(k ? k : 1);
        double lg = std::log2(std::max(pts, 2.0));
        return 5.0 * pts * lg * static_cast<double>(m);
      }
      case AccelKind::RESHP:
        return 0.0; // pure data motion; reported as GB/s (footnote 3)
      default:
        panic("flops: bad AccelKind");
    }
}

double
operandIterations(const OperandRef &op, const LoopSpec &loop)
{
    double t = 1.0;
    for (unsigned d = 0; d < kMaxLoopDims; ++d)
        if (op.stride[d] != 0)
            t *= static_cast<double>(loop.dims[d]);
    return t;
}

OperandTrafficList
operandTraffic(const OpCall &c, const LoopSpec &loop)
{
    const double es = static_cast<double>(c.elemBytes());
    const double dn = static_cast<double>(c.n);
    const double dm = static_cast<double>(c.m);
    const double dk = static_cast<double>(c.k);
    auto term = [&](const OperandRef &op, double per_iter) {
        return OperandTraffic{&op, per_iter *
                                       operandIterations(op, loop)};
    };
    switch (c.kind) {
      case AccelKind::AXPY:
        return {term(c.in0, dn * es), term(c.out, 2.0 * dn * es)};
      case AccelKind::DOT:
        return {term(c.in0, dn * es), term(c.in1, dn * es),
                term(c.out, es)};
      case AccelKind::GEMV:
        return {term(c.in0, dm * dn * es), term(c.in1, dn * es),
                term(c.out, dm * es)};
      case AccelKind::SPMV:
        return {term(c.in0, dm * 8.0), term(c.in1, dk * 4.0),
                term(c.in2, dk * 4.0), term(c.in3, dk * 4.0),
                term(c.out, dm * 4.0)};
      case AccelKind::RESMP:
        return {term(c.in0, dn * es), term(c.out, dm * es)};
      case AccelKind::FFT: {
        double pts = dn * (dk ? dk : 1.0) * dm;
        double passes = pts * es <= 256.0 * 1024.0 ? 1.0 : 2.0;
        return {term(c.in0, passes * pts * es),
                term(c.out, passes * pts * es)};
      }
      case AccelKind::RESHP:
        return {term(c.in0, dm * dn * es), term(c.out, dm * dn * es)};
      default:
        panic("operandTraffic: bad AccelKind");
    }
}

double
loopedTrafficBytes(const OpCall &c, const LoopSpec &loop)
{
    double total = 0.0;
    for (const OperandTraffic &t : operandTraffic(c, loop))
        total += t.bytes;
    return total;
}

double
OpCall::inputBytes() const
{
    const double es = static_cast<double>(elemBytes());
    const double dn = static_cast<double>(n);
    const double dm = static_cast<double>(m);
    const double dk = static_cast<double>(k);
    switch (kind) {
      case AccelKind::AXPY:
        return dn * es * 2.0; // x plus the pre-existing y
      case AccelKind::DOT:
        return dn * es * 2.0;
      case AccelKind::GEMV:
        return (dm * dn + dn) * es;
      case AccelKind::SPMV:
        return dm * 8.0 + dk * 8.0 + dn * 4.0;
      case AccelKind::RESMP:
        return dn * es;
      case AccelKind::FFT:
        return dn * (dk ? dk : 1.0) * es * dm;
      case AccelKind::RESHP:
        return dm * dn * es;
      default:
        panic("inputBytes: bad AccelKind");
    }
}

double
OpCall::trafficBytes() const
{
    const double es = static_cast<double>(elemBytes());
    const double dn = static_cast<double>(n);
    const double dm = static_cast<double>(m);
    const double dk = static_cast<double>(k);
    switch (kind) {
      case AccelKind::AXPY:
        return dn * es * 3.0; // read x, read y, write y
      case AccelKind::DOT:
        return dn * es * 2.0; // read x, read y
      case AccelKind::GEMV:
        return dm * dn * es + dn * es + dm * es;
      case AccelKind::SPMV:
        // rowPtr (8B) + colIdx (4B) + vals (4B) + x gather + y write.
        return dm * 8.0 + dk * (4.0 + 4.0 + 4.0) + dm * 4.0;
      case AccelKind::RESMP:
        return (dn + dm) * es;
      case AccelKind::FFT: {
        // DRAM-optimized FFT [24]: one read+write pass when the
        // transform fits the accelerator local memory, two otherwise
        // (row-column decomposition). Pass count is refined by the
        // model, which knows the local memory size; assume 2 here for
        // large transforms.
        double pts = dn * (dk ? dk : 1.0);
        double passes = pts * es <= 256.0 * 1024.0 ? 1.0 : 2.0;
        return passes * 2.0 * pts * es * dm;
      }
      case AccelKind::RESHP:
        return dm * dn * es * 2.0;
      default:
        panic("trafficBytes: bad AccelKind");
    }
}

} // namespace mealib::accel

#include "snapbench/src/ops.h"

#include <algorithm>

namespace snapbench {

Latencies Summarize(const std::vector<OpRec>& ops, bool open_loop,
                    int64_t miss_ns, int64_t from, int64_t to) {
  Latencies l;
  for (const OpRec& r : ops) {
    const int64_t start = open_loop ? r.due : r.sub0;
    if (!r.window || start < from || start >= to) {
      continue;
    }
    const double scale = r.cls == kBulk ? 1e6 : 1e3;
    const int64_t ns = r.ok ? r.done - start
                            : std::max(r.done - start, miss_ns);
    const double value = static_cast<double>(ns) / scale;
    std::vector<double>* bucket =
        r.cls == kProbe ? &l.rtt_us
                        : (r.cls == kBulk ? &l.bulk_ms : &l.onesided_us);
    if (open_loop) {
      l.lateness_us.push_back(static_cast<double>(r.sub0 - r.due) / 1e3);
    }
    if (!r.ok) {
      l.account.Fail(bucket, value);
      continue;
    }
    l.account.Ok();
    bucket->push_back(value);
    ++l.ok_ops;
    l.payload_bytes += r.cls == kProbe  ? 2 * kSmallBytes
                       : r.cls == kBulk ? kSmallBytes + kBulkBytes
                                        : kSmallBytes;
  }
  return l;
}

}  // namespace snapbench

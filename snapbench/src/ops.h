// Per-op records of the live workloads and their end-to-end summary.
#ifndef SNAPBENCH_SRC_OPS_H_
#define SNAPBENCH_SRC_OPS_H_

#include <cstdint>
#include <vector>

#include "snapbench/src/measure.h"

namespace snapbench {

enum OpClass : uint8_t { kProbe = 0, kRead = 1, kWrite = 2, kBulk = 3 };

constexpr int64_t kSmallBytes = 64;
constexpr int64_t kBulkBytes = 1 << 20;

struct OpRec {
  int64_t due = 0;    // open loop: schedule time; closed loop: sub0
  int64_t sub0 = 0;   // submit call entered
  int64_t sub1 = 0;   // submit call returned
  int64_t done = 0;   // result seen by the app, or when the op was failed
  int64_t stamp = 0;  // engine stamp: receive_time / complete_time
  uint64_t op_id = 0;
  uint8_t cls = kProbe;
  bool window = false;    // counts toward the measurement
  bool finished = false;  // result seen, refused at submit, or timed out
  bool ok = false;        // finished with the right bytes and status
};

// Latency summaries of the window ops per class group. Failed ops (refused,
// timed out, error status, wrong bytes) count as missing every limit: they
// enter as the longer of their time outstanding and `miss_ns`, the op
// timeout, so no latency limit below the timeout is met by a failure.
struct Latencies {
  std::vector<double> rtt_us, onesided_us, bulk_ms;
  std::vector<double> lateness_us;  // open loop: submit minus due
  OpAccount account;
  int64_t ok_ops = 0;
  double payload_bytes = 0;  // useful bytes: requests + responses
};

// Latency is timed from the op's due time in an open loop, from its
// submit call in a closed loop. Only window ops that start in [from, to)
// are summarized.
Latencies Summarize(const std::vector<OpRec>& ops, bool open_loop,
                    int64_t miss_ns, int64_t from, int64_t to);

}  // namespace snapbench

#endif  // SNAPBENCH_SRC_OPS_H_

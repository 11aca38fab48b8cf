// Settings every workload shares. This is the one place they are defined:
// both benchmark binaries include it, and run.py reads them from the JSON
// that `perfbench_cirstag gen` and `perfbench_cirstag analyze` print.
#pragma once

#include <cstddef>

namespace perfbench {

inline constexpr std::size_t kThreads = 4;  ///< pool width of every workload
inline constexpr std::size_t kWorkers = 2;  ///< serve scheduler workers
/// GNN surrogate training, in-process and in the daemon's /load body.
inline constexpr std::size_t kEpochs = 60;
inline constexpr std::size_t kHidden = 16;
/// Set-ups per run; setup_s is their median.
inline constexpr std::size_t kSetups = 3;
/// analyze-14k makes at least this many analyze() calls per run ...
inline constexpr std::size_t kMinAnalyzeCalls = 3;
/// ... unless the next call would end past this much wall time, so that a
/// run on a heavily contended host still ends within its time limit.
inline constexpr double kMaxAnalyzeWallSeconds = 120.0;
/// Closed-loop callers of the serve workloads.
inline constexpr std::size_t kConnections = 4;
/// Name the served circuit is loaded under.
inline constexpr const char* kCircuitName = "bench";

}  // namespace perfbench

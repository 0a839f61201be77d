// The system under test, run in a child process so its CPU time and
// resident memory are measured apart from the load generator.  The
// parent drives it over a line protocol on two pipes:
//
//   child -> parent  "boot <t0_ns> <rss_kb>"   the boot starts (archive,
//                                              codes and ingest slices
//                                              already resident: rss_kb)
//   child -> parent  "ready <port> [<node ports>...]"
//   parent -> child  "ingest_start"            cluster: start the routed
//                                              ingest stream -> "ok"
//   parent -> child  "mark"                    window starts -> "ok"
//   parent -> child  "ingest_stop"             stop the stream -> "ingest
//                                              <ok> <failed> <items>
//                                              <ns>..." (since "mark")
//   parent -> child  "cpu"                     -> "cpu <us>": the process's
//                                              CPU time, all threads
//   parent -> child  "probe <spans path>"      in-process probes ->
//                                              "probe <sum_ns> <n> x5
//                                              <docs_examined> <results>"
//   parent -> child  "exit"                    tear down -> "bye"
#ifndef E2EBENCH_SUT_H_
#define E2EBENCH_SUT_H_

#include <string>

#include "workload.h"

namespace e2ebench {

/// Runs the child side: one boot, then commands until "exit".  Returns
/// the process exit code.
int RunSut(const Inputs& in, const std::string& state_dir, int cmd_fd,
           int reply_fd);

/// Line helpers shared by both sides.  ReadLine returns false on EOF,
/// error or timeout (timeout_ms < 0 waits forever).
bool SendLine(int fd, const std::string& line);
bool ReadLine(int fd, std::string* line, int timeout_ms);

}  // namespace e2ebench

#endif  // E2EBENCH_SUT_H_

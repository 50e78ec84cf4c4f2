// Compile-time contract: a scheduler callback whose capture is not trivially
// copyable and destructible (sim/scheduler.h, Scheduler::Callback) does not
// compile — the slot pool copies callbacks as bytes and never runs a
// destructor. ctest builds this file twice and `all` never does: with
// CAPTURE_DESTRUCTOR=0 it must compile, the control proving that the other
// build fails on the user-provided destructor alone; with
// CAPTURE_DESTRUCTOR=1 it must fail.
#include "sim/scheduler.h"

#ifndef CAPTURE_DESTRUCTOR
#error "build through tests/CMakeLists.txt, which sets CAPTURE_DESTRUCTOR"
#endif

namespace {

struct Payload {
  int value = 0;
#if CAPTURE_DESTRUCTOR
  ~Payload() {}  // NOLINT(modernize-use-equals-default): the point of the test
#endif
};

}  // namespace

pels::Scheduler::Callback make_callback() {
  const Payload payload{};
  return [payload] { static_cast<void>(payload); };
}

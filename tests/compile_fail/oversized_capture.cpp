// Compile-time contract: a scheduler callback whose capture outgrows
// kSchedulerCallbackCapacity (sim/scheduler.h) does not compile. ctest
// builds this file twice and `all` never does: with CAPTURE_BYTES=32 it must
// compile, the control proving that the other build fails on the capture's
// size alone; with CAPTURE_BYTES=40 it must fail.
#include "sim/scheduler.h"

#ifndef CAPTURE_BYTES
#error "build through tests/CMakeLists.txt, which sets CAPTURE_BYTES"
#endif

namespace {

struct Payload {
  unsigned char bytes[CAPTURE_BYTES];
};

}  // namespace

pels::Scheduler::Callback make_callback() {
  const Payload payload{};
  return [payload] { static_cast<void>(payload); };
}

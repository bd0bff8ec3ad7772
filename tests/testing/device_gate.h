#ifndef PROCLUS_TESTS_TESTING_DEVICE_GATE_H_
#define PROCLUS_TESTS_TESTING_DEVICE_GATE_H_

#include <functional>
#include <future>
#include <mutex>

#include "common/status.h"

namespace proclus {

// Holds a service's GPU jobs until the test opens it. Install hook() as
// ServiceOptions::device_fault_hook: the service calls the hook on the
// worker thread after the job turns `running` and before it leases a
// device, so a GPU job stays `running`, holding its worker, until Open().
// Tests use it where they need a busy worker, in place of a job that is
// merely slow, so no assertion depends on how long a job takes.
//
// A service cannot shut down while a job waits in the hook. Declare an
// OpenOnExit after the service: the gate then opens before the service is
// torn down, also when an assertion ends the test early.
class DeviceGate {
 public:
  std::function<Status()> hook() const {
    return [opened = opened_] {
      opened.wait();
      return Status::OK();
    };
  }

  void Open() {
    std::call_once(once_, [this] { open_.set_value(); });
  }

  class OpenOnExit {
   public:
    explicit OpenOnExit(DeviceGate* gate) : gate_(gate) {}
    OpenOnExit(const OpenOnExit&) = delete;
    OpenOnExit& operator=(const OpenOnExit&) = delete;
    ~OpenOnExit() { gate_->Open(); }

   private:
    DeviceGate* gate_;
  };

 private:
  std::promise<void> open_;
  std::shared_future<void> opened_ = open_.get_future().share();
  std::once_flag once_;
};

}  // namespace proclus

#endif  // PROCLUS_TESTS_TESTING_DEVICE_GATE_H_

#include "fault/fault_plan.h"

#include <algorithm>
#include <cassert>
#include <stdexcept>
#include <utility>
#include <vector>

#include "net/link.h"
#include "queue/pels_queue.h"

namespace pels {

namespace {

void check_window(SimTime at, SimTime until, const char* what) {
  if (at < 0 || until <= at) {
    throw std::invalid_argument(std::string("FaultPlan: ") + what +
                                " window needs 0 <= at < until");
  }
}

/// Same-kind windows acting on one resource must be disjoint (touching is
/// fine). Overlapping flaps are semantically broken — the first flap's
/// up-edge fires inside the second's down window and silently revives the
/// link; overlapping brown-outs restore the degraded (not the original)
/// rate. The chaos generator produces disjoint windows by construction;
/// hand-written plans get the same guarantee checked here.
void check_disjoint(std::vector<std::pair<SimTime, SimTime>> spans, const char* what) {
  std::sort(spans.begin(), spans.end());
  for (std::size_t i = 1; i < spans.size(); ++i) {
    if (spans[i].first < spans[i - 1].second) {
      throw std::invalid_argument(std::string("FaultPlan: ") + what +
                                  " windows overlap (same link/resource)");
    }
  }
}

}  // namespace

void FaultPlan::validate() const {
  std::vector<std::pair<SimTime, SimTime>> spans;
  for (const LinkFlap& f : link_flaps) {
    check_window(f.down_at, f.up_at, "link-flap");
    spans.emplace_back(f.down_at, f.up_at);
  }
  check_disjoint(std::move(spans), "link-flap");
  spans.clear();
  for (const Brownout& b : brownouts) {
    check_window(b.at, b.until, "brown-out");
    if (!(b.factor > 0.0 && b.factor <= 1.0)) {
      throw std::invalid_argument("FaultPlan: brown-out factor must be in (0, 1]");
    }
    spans.emplace_back(b.at, b.until);
  }
  check_disjoint(std::move(spans), "brown-out");
  for (const RouterRestart& r : router_restarts) {
    if (r.at < 0) throw std::invalid_argument("FaultPlan: restart time must be >= 0");
  }
  for (const Window& w : ack_blackouts) check_window(w.at, w.until, "ACK-blackout");
  if (burst_corruption) burst_corruption->validate();
}

void FaultInjector::inject_flap(Link& link, FaultPlan::LinkFlap flap) {
  Link* l = &link;
  sim_.at(flap.down_at, [l] { l->set_up(false); });
  sim_.at(flap.up_at, [l] { l->set_up(true); });
}

void FaultInjector::inject_brownout(Link& link, FaultPlan::Brownout brownout,
                                    PelsQueue* queue) {
  Link* l = &link;
  const SimTime until = brownout.until;
  const double factor = brownout.factor;
  sim_.at(brownout.at, [l, q = queue, until, factor] {
    // Capture the rate at the window edge (not at plan time): an earlier
    // capacity change or overlapping fault must be restored, not overwritten.
    const double prior = l->bandwidth_bps();
    const double degraded = prior * factor;
    l->set_bandwidth_bps(degraded);
    if (q != nullptr) q->set_link_bandwidth(degraded);
    l->sim().at(until, [l, q, prior] {
      l->set_bandwidth_bps(prior);
      if (q != nullptr) q->set_link_bandwidth(prior);
    });
  });
}

void FaultInjector::inject_restart(PelsQueue& queue, FaultPlan::RouterRestart restart) {
  PelsQueue* q = &queue;
  sim_.at(restart.at, [q] { q->restart(); });
}

void FaultInjector::inject_blackouts(Link& reverse,
                                     const std::vector<FaultPlan::Window>& windows) {
  if (windows.empty()) return;
  std::vector<BlackoutLoss::Window> spans;
  spans.reserve(windows.size());
  for (const FaultPlan::Window& w : windows) spans.push_back({w.at, w.until});
  reverse.add_corruption(BlackoutLoss(std::move(spans)));
}

void FaultInjector::inject_burst_corruption(Link& link, GilbertElliottConfig config,
                                            Rng rng) {
  link.add_corruption(GilbertElliottLoss(config, rng));
}

void FaultInjector::apply(const FaultPlan& plan, Link& forward, Link& reverse,
                          PelsQueue* queue) {
  assert(queue != nullptr || plan.router_restarts.empty());
  for (const FaultPlan::LinkFlap& f : plan.link_flaps) inject_flap(forward, f);
  for (const FaultPlan::Brownout& b : plan.brownouts) inject_brownout(forward, b, queue);
  for (const FaultPlan::RouterRestart& r : plan.router_restarts)
    inject_restart(*queue, r);
  inject_blackouts(reverse, plan.ack_blackouts);
  if (plan.burst_corruption) {
    // Stream id fixed so the corruption pattern depends only on the master
    // seed and the plan, never on wiring order.
    inject_burst_corruption(forward, *plan.burst_corruption, sim_.make_rng(0x6E11));
  }
}

}  // namespace pels

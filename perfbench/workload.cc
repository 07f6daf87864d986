// The timed phases: closed- and open-loop serving, the detection pass and
// the integration pass, plus the checks on what each returned.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <future>
#include <list>
#include <thread>

#include "bench.h"
#include "core/detection.h"
#include "model/generation.h"
#include "util/logging.h"
#include "util/stopwatch.h"

namespace infuserki::perfbench {
namespace {

using Clock = std::chrono::steady_clock;

constexpr std::chrono::microseconds kSpinBeforeDue(1000);

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

serve::Request MakeRequest(const ServeInput& input) {
  serve::Request request;
  request.prompt = input.prompt;
  request.max_new_tokens = input.max_new;
  return request;
}

}  // namespace

ServePhase RunClosedLoop(serve::InferenceServer* server,
                         const std::vector<ServeInput>& stream, size_t first,
                         double budget_s) {
  struct Pending {
    size_t index;
    std::future<serve::Response> future;
  };
  ServePhase phase;
  phase.name = "closed_loop";
  phase.before = obs::Registry::Get().TakeSnapshot();
  std::list<Pending> pending;
  std::vector<double> submitted(stream.size() - first);
  size_t next = first;
  const Clock::time_point start = Clock::now();
  for (;;) {
    if (SecondsSince(start) < budget_s) {
      while (pending.size() < kWindow) {
        CHECK_LT(next, stream.size()) << "phase A input stream exhausted";
        submitted[next - first] = SecondsSince(start);
        pending.push_back({next, server->Submit(MakeRequest(stream[next]))});
        ++next;
      }
    }
    if (pending.empty()) break;
    bool harvested = false;
    for (auto it = pending.begin(); it != pending.end();) {
      if (it->future.wait_for(std::chrono::seconds(0)) ==
          std::future_status::ready) {
        phase.records.push_back({&stream[it->index], it->future.get(), 0.0,
                                 submitted[it->index - first],
                                 SecondsSince(start)});
        it = pending.erase(it);
        harvested = true;
      } else {
        ++it;
      }
    }
    if (!harvested) {
      // Block on the oldest request rather than poll, so the generator
      // takes no CPU from the server while the window is full.
      pending.front().future.wait();
    }
  }
  phase.window_s = SecondsSince(start);
  phase.after = obs::Registry::Get().TakeSnapshot();
  phase.next_input = next;
  return phase;
}

ServePhase RunOpenLoop(serve::InferenceServer* server,
                       const std::vector<ServeInput>& stream,
                       const std::vector<double>& arrivals_s, double begin_s,
                       double end_s) {
  CHECK_EQ(stream.size(), arrivals_s.size());
  ServePhase phase;
  phase.name = "open_loop";
  phase.window_s = end_s - begin_s;
  const size_t first = static_cast<size_t>(
      std::lower_bound(arrivals_s.begin(), arrivals_s.end(), begin_s) -
      arrivals_s.begin());
  const size_t last = static_cast<size_t>(
      std::lower_bound(arrivals_s.begin(), arrivals_s.end(), end_s) -
      arrivals_s.begin());
  phase.before = obs::Registry::Get().TakeSnapshot();
  std::vector<std::future<serve::Response>> futures;
  std::vector<double> lateness;
  std::vector<double> submitted;
  const Clock::time_point start = Clock::now();
  for (size_t i = first; i < last; ++i) {
    const double due_s = arrivals_s[i] - begin_s;
    const Clock::time_point due =
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(due_s));
    // Sleep to just before the due time, then spin: waking a thread whose
    // core went idle can take milliseconds on a virtual machine.
    std::this_thread::sleep_until(due - kSpinBeforeDue);
    while (Clock::now() < due) {
    }
    submitted.push_back(SecondsSince(start));
    lateness.push_back(submitted.back() - due_s);
    futures.push_back(server->Submit(MakeRequest(stream[i])));
  }
  for (size_t k = 0; k < futures.size(); ++k) {
    phase.records.push_back({&stream[first + k], futures[k].get(),
                             lateness[k], submitted[k], SecondsSince(start)});
  }
  phase.after = obs::Registry::Get().TakeSnapshot();
  return phase;
}

ServePhase MergeRecords(const std::vector<ServePhase>& phases,
                        const std::string& name) {
  ServePhase merged;
  merged.name = name;
  for (const ServePhase& phase : phases) {
    merged.window_s += phase.window_s;
    merged.records.insert(merged.records.end(), phase.records.begin(),
                          phase.records.end());
  }
  return merged;
}

double ClosedLoopTokenRate(const std::vector<ServePhase>& blocks) {
  double tokens = 0.0;
  double seconds = 0.0;
  for (const ServePhase& phase : blocks) {
    for (const ServeRecord& record : phase.records) {
      if (record.response.status.ok()) {
        tokens += static_cast<double>(record.response.tokens.size());
      }
    }
    seconds += phase.window_s;
  }
  return seconds > 0.0 ? tokens / seconds : 0.0;
}

OpenLoopLatency SummarizeOpenLoop(const std::vector<ServePhase>& blocks,
                                  const WorkloadSpec& spec) {
  std::vector<double> ttft_ms;
  std::vector<double> itl_ms;
  size_t sent = 0;
  size_t met = 0;
  for (const ServePhase& phase : blocks) {
    for (const ServeRecord& record : phase.records) {
      ++sent;
      const serve::Response& r = record.response;
      if (!r.status.ok() || r.tokens.empty()) continue;
      double ttft = (record.lateness_s + r.ttft_seconds) * 1e3;
      double itl = 0.0;
      ttft_ms.push_back(ttft);
      if (r.tokens.size() >= 2) {
        itl = (r.total_seconds - r.ttft_seconds) * 1e3 /
              static_cast<double>(r.tokens.size() - 1);
        itl_ms.push_back(itl);
      }
      if (ttft <= spec.ttft_slo_ms && itl <= spec.itl_slo_ms) ++met;
    }
  }
  return {Quantile(ttft_ms, 0.50), Quantile(ttft_ms, 0.99),
          Quantile(itl_ms, 0.50), Quantile(itl_ms, 0.99),
          sent > 0 ? static_cast<double>(met) / static_cast<double>(sent)
                   : 0.0};
}

bool ServeConservationHolds(const ServePhase& phase, std::string* why) {
  auto delta = [&](const char* name) {
    return CounterDelta(phase.before, phase.after, name);
  };
  uint64_t requests = delta("serve/requests");
  uint64_t classified = delta("serve/completed") + delta("serve/shed") +
                        delta("serve/deadline_misses") +
                        delta("serve/cancelled") + delta("serve/failures");
  uint64_t ok = 0;
  for (const ServeRecord& record : phase.records) {
    ok += record.response.status.ok() ? 1 : 0;
  }
  if (requests != phase.records.size() || classified != requests ||
      delta("serve/completed") != ok) {
    *why = phase.name + ": sent=" + std::to_string(phase.records.size()) +
           " serve/requests=" + std::to_string(requests) +
           " classified=" + std::to_string(classified) +
           " ok=" + std::to_string(ok) +
           " serve/completed=" + std::to_string(delta("serve/completed"));
    return false;
  }
  return true;
}

bool ServedStreamsMatchGreedy(const World& world, const ServePhase& phase,
                              size_t count, std::string* why) {
  const size_t n = phase.records.size();
  size_t checked = 0;
  for (size_t k = 0; k < count && n > 0; ++k) {
    const ServeRecord& record = phase.records[k * n / count];
    if (!record.response.status.ok()) continue;
    std::vector<int> prompt_ids =
        world.tokenizer.EncodeWithSpecials(record.input->prompt, false);
    std::vector<int> expected =
        model::GreedyDecode(*world.lm, prompt_ids, record.input->max_new);
    if (expected != record.response.tokens) {
      *why = phase.name + ": request " +
             std::to_string(record.response.request_id) +
             " differs from GreedyDecode";
      return false;
    }
    ++checked;
  }
  if (checked == 0) {
    *why = phase.name + ": no served stream to check";
    return false;
  }
  return true;
}

void RunDetection(const World& world, double budget_s, DetectPhase* phase) {
  const std::vector<kg::Mcq>& mcqs = world.inputs.mcqs;
  if (phase->calls == 0) {
    phase->known.assign(mcqs.size(), 0);
    phase->before = obs::Registry::Get().TakeSnapshot();
  }
  util::Stopwatch watch;
  do {
    const size_t s = phase->calls % kDetectSlices;
    const size_t begin = s * mcqs.size() / kDetectSlices;
    const size_t end = (s + 1) * mcqs.size() / kDetectSlices;
    std::vector<kg::Mcq> slice(mcqs.begin() + begin, mcqs.begin() + end);
    util::Stopwatch slice_watch;
    core::DetectionResult result =
        core::DetectKnowledge(*world.lm, world.tokenizer, slice);
    const double seconds = slice_watch.ElapsedSeconds();
    phase->slice_rates.push_back(static_cast<double>(slice.size()) / seconds);
    phase->seconds += seconds;
    for (size_t i = begin; i < end; ++i) {
      const char known = result.is_known.at(mcqs[i].triplet_index);
      if (phase->calls < kDetectSlices) {
        phase->known[i] = known;
      } else if (known != phase->known[i]) {
        phase->passes_identical = false;
      }
    }
    phase->mcqs_scored += slice.size();
    ++phase->calls;
  } while (watch.ElapsedSeconds() < budget_s);
  phase->after = obs::Registry::Get().TakeSnapshot();
}

void RunIntegration(World* world, double budget_s, IntegratePhase* phase) {
  if (phase->train_seconds.empty()) {
    phase->before = obs::Registry::Get().TakeSnapshot();
  }
  const size_t per_train = ExamplesPerTrain(world->inputs.train, kTrainEpochs);
  util::Stopwatch watch;
  do {
    util::Stopwatch train_watch;
    core::InfuserKi method(world->lm.get(), IntegrationOptions(kTrainEpochs));
    method.Train(world->inputs.train);
    const double seconds = train_watch.ElapsedSeconds();
    phase->train_seconds.push_back(seconds);
    phase->seconds += seconds;
    phase->infuser_loss = method.infuser_loss();
    phase->qa_loss = method.qa_loss();
    phase->rc_loss = method.rc_loss();
    phase->losses_finite = phase->losses_finite &&
                           std::isfinite(phase->infuser_loss) &&
                           std::isfinite(phase->qa_loss) &&
                           std::isfinite(phase->rc_loss);
    phase->examples += per_train;
  } while (watch.ElapsedSeconds() < budget_s);
  phase->after = obs::Registry::Get().TakeSnapshot();
}

float FirstEpochQaLoss(World* world) {
  TrainEpochs epochs = kTrainEpochs;
  epochs.qa = 1;
  epochs.rc = 0;
  core::InfuserKi method(world->lm.get(), IntegrationOptions(epochs));
  method.Train(world->inputs.train);
  return method.qa_loss();
}

}  // namespace infuserki::perfbench

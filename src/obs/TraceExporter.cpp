//===- obs/TraceExporter.cpp - Chrome trace-event JSON --------------------===//
//
// Part of the WBTuner reproduction, MIT license.
//
//===----------------------------------------------------------------------===//

#include "obs/TraceExporter.h"

#include "obs/Metrics.h"

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <cstring>
#include <map>

namespace wbt {
namespace obs {

namespace {

bool isBegin(EventKind K) {
  return K == EventKind::RegionBegin || K == EventKind::SampleBegin ||
         K == EventKind::WorkerBegin || K == EventKind::LeaseBegin ||
         K == EventKind::BatchBegin;
}

bool isEnd(EventKind K) {
  return K == EventKind::RegionEnd || K == EventKind::SampleEnd ||
         K == EventKind::WorkerEnd || K == EventKind::LeaseEnd ||
         K == EventKind::BatchEnd;
}

EventKind beginOf(EventKind End) {
  switch (End) {
  case EventKind::RegionEnd:
    return EventKind::RegionBegin;
  case EventKind::SampleEnd:
    return EventKind::SampleBegin;
  case EventKind::WorkerEnd:
    return EventKind::WorkerBegin;
  case EventKind::LeaseEnd:
    return EventKind::LeaseBegin;
  case EventKind::BatchEnd:
    return EventKind::BatchBegin;
  default:
    return End;
  }
}

/// Common prefix of one trace record: {"name":...,"ph":..,"pid","tid","ts"}.
void openRecord(std::string &Out, bool &First, const char *Name,
                const char *Ph, int32_t Pid, double TsUs) {
  if (!First)
    Out += ",\n";
  First = false;
  appendf(Out,
          "    {\"name\": \"%s\", \"cat\": \"wbt\", \"ph\": \"%s\", "
          "\"pid\": %" PRId32 ", \"tid\": %" PRId32 ", \"ts\": %.3f",
          Name, Ph, Pid, Pid, TsUs);
}

} // namespace

void appendf(std::string &Out, const char *Fmt, ...) {
  va_list Ap;
  va_start(Ap, Fmt);
  va_list Ap2;
  va_copy(Ap2, Ap);
  char Buf[256];
  int Need = vsnprintf(Buf, sizeof(Buf), Fmt, Ap);
  va_end(Ap);
  if (Need >= 0 && size_t(Need) < sizeof(Buf)) {
    Out.append(Buf, size_t(Need));
  } else if (Need >= 0) {
    // The stack buffer truncated the record; re-format into the exact
    // size so long names never emit torn JSON.
    size_t Base = Out.size();
    Out.resize(Base + size_t(Need) + 1);
    vsnprintf(&Out[Base], size_t(Need) + 1, Fmt, Ap2);
    Out.resize(Base + size_t(Need));
  }
  va_end(Ap2);
}

std::string chromeTraceJson(std::vector<TraceEvent> Events) {
  std::stable_sort(Events.begin(), Events.end(),
                   [](const TraceEvent &X, const TraceEvent &Y) {
                     return X.TsNs < Y.TsNs;
                   });
  uint64_t T0 = Events.empty() ? 0 : Events.front().TsNs;
  uint64_t TMax = Events.empty() ? 0 : Events.back().TsNs;
  auto tsUs = [&](uint64_t TsNs) {
    return double(TsNs - T0) / 1000.0;
  };

  // One track per pid; name it after the first span the process opens
  // (a pid that is a sampling child in one region can only ever be a
  // child — tuning pids open regions first). Remote agents first: their
  // NetCommitFrame records mark the pid as an agent regardless of which
  // span kind happens to sort first, so a merged multi-host trace keeps
  // remote tracks distinguishable from local workers.
  std::map<int32_t, const char *> TrackName;
  for (const TraceEvent &Ev : Events)
    if (EventKind(Ev.Kind) == EventKind::NetCommitFrame &&
        !TrackName.count(Ev.Pid))
      TrackName[Ev.Pid] = "agent";
  for (const TraceEvent &Ev : Events) {
    EventKind K = EventKind(Ev.Kind);
    const char *Name = nullptr;
    if (K == EventKind::RegionBegin || K == EventKind::Fork)
      Name = "tuning";
    else if (K == EventKind::SampleBegin)
      Name = "sampler";
    else if (K == EventKind::WorkerBegin || K == EventKind::LeaseBegin)
      Name = "worker";
    if (Name && !TrackName.count(Ev.Pid))
      TrackName[Ev.Pid] = Name;
  }

  std::string Out = "{\n  \"displayTimeUnit\": \"ms\",\n"
                    "  \"traceEvents\": [\n";
  bool First = true;
  for (const auto &[Pid, Name] : TrackName) {
    openRecord(Out, First, "process_name", "M", Pid, 0.0);
    appendf(Out, ", \"args\": {\"name\": \"%s\"}}", Name);
  }

  // Per-pid stack of open spans so we can synthesize closers for
  // processes that were SIGKILLed with spans still open.
  std::map<int32_t, std::vector<EventKind>> Open;
  for (const TraceEvent &Ev : Events) {
    EventKind K = EventKind(Ev.Kind);
    double Ts = tsUs(Ev.TsNs);
    if (isBegin(K)) {
      Open[Ev.Pid].push_back(K);
      openRecord(Out, First, eventKindName(K), "B", Ev.Pid, Ts);
      appendf(Out, ", \"args\": {\"a\": %" PRIu64 ", \"b\": %" PRIu64 "}}",
              Ev.A, Ev.B);
    } else if (isEnd(K)) {
      std::vector<EventKind> &Stack = Open[Ev.Pid];
      // An end without a matching begin (its begin was dropped by a full
      // ring) would unbalance the track: skip it.
      if (Stack.empty() || Stack.back() != beginOf(K))
        continue;
      Stack.pop_back();
      openRecord(Out, First, eventKindName(K), "E", Ev.Pid, Ts);
      appendf(Out, ", \"args\": {\"a\": %" PRIu64 ", \"arg\": %u}}", Ev.A,
              unsigned(Ev.Arg));
    } else if (K == EventKind::Fork || K == EventKind::StoreCommit) {
      // Complete events with a measured duration; the event is emitted
      // at completion, so the span starts dur earlier.
      double DurUs = double(Ev.B) / 1000.0;
      const char *Name = K == EventKind::Fork
                             ? (Ev.Arg ? "fork-split" : "fork")
                             : (Ev.A ? "commit-file" : "commit-shm");
      openRecord(Out, First, Name, "X", Ev.Pid,
                 Ts > DurUs ? Ts - DurUs : 0.0);
      appendf(Out, ", \"dur\": %.3f", DurUs);
      if (K == EventKind::StoreCommit && Ev.Arg)
        appendf(Out, ", \"args\": {\"fallback\": \"%s\"}}",
                fallbackReasonName(FallbackReason(Ev.Arg - 1)));
      else
        appendf(Out, ", \"args\": {\"a\": %" PRIu64 "}}", Ev.A);
    } else if (K == EventKind::Progress) {
      // Per-region aggregate outcome as a Perfetto counter track: B is
      // the bit pattern of the score. Non-finite scores would render as
      // bare `inf`/`nan` (invalid JSON) — emit those as instants only.
      double Score;
      std::memcpy(&Score, &Ev.B, sizeof(Score));
      if (std::isfinite(Score)) {
        openRecord(Out, First, "score", "C", Ev.Pid, Ts);
        appendf(Out,
                ", \"args\": {\"score\": %.6g, \"region\": %" PRIu64
                ", \"samples\": %u}}",
                Score, Ev.A, unsigned(Ev.Arg));
      } else {
        openRecord(Out, First, "progress", "i", Ev.Pid, Ts);
        appendf(Out, ", \"s\": \"t\", \"args\": {\"a\": %" PRIu64 "}}", Ev.A);
      }
    } else {
      openRecord(Out, First, eventKindName(K), "i", Ev.Pid, Ts);
      appendf(Out,
              ", \"s\": \"t\", \"args\": {\"a\": %" PRIu64 ", \"b\": %" PRIu64
              "}}",
              Ev.A, Ev.B);
    }
  }

  // Close dangling spans (killed workers/samplers) at the trace horizon,
  // innermost first, so every "B" has its "E" on every track.
  for (auto &[Pid, Stack] : Open) {
    while (!Stack.empty()) {
      EventKind K = Stack.back();
      Stack.pop_back();
      openRecord(Out, First, eventKindName(K), "E", Pid, tsUs(TMax));
      Out += ", \"args\": {\"synthesized\": 1}}";
    }
  }

  Out += "\n  ]\n}\n";
  return Out;
}

bool writeChromeTrace(const std::string &Path,
                      std::vector<TraceEvent> Events) {
  std::string Json = chromeTraceJson(std::move(Events));
  std::FILE *F = std::fopen(Path.c_str(), "w");
  if (!F)
    return false;
  size_t Written = std::fwrite(Json.data(), 1, Json.size(), F);
  bool Ok = Written == Json.size();
  Ok = (std::fclose(F) == 0) && Ok;
  return Ok;
}

static const char FragMagic[8] = {'W', 'B', 'T', 'F', '1', 0, 0, 0};

bool writeTraceFragment(const std::string &Path,
                        const std::vector<TraceEvent> &Events) {
  std::string Tmp = Path + ".tmp";
  std::FILE *F = std::fopen(Tmp.c_str(), "w");
  if (!F)
    return false;
  uint64_t N = Events.size();
  bool Ok = std::fwrite(FragMagic, 1, sizeof(FragMagic), F) ==
                sizeof(FragMagic) &&
            std::fwrite(&N, sizeof(N), 1, F) == 1 &&
            (N == 0 ||
             std::fwrite(Events.data(), sizeof(TraceEvent), N, F) == N);
  Ok = (std::fclose(F) == 0) && Ok;
  if (Ok)
    Ok = std::rename(Tmp.c_str(), Path.c_str()) == 0;
  if (!Ok)
    std::remove(Tmp.c_str());
  return Ok;
}

bool readTraceFragment(const std::string &Path, std::vector<TraceEvent> &Out) {
  std::FILE *F = std::fopen(Path.c_str(), "r");
  if (!F)
    return false;
  char Magic[8];
  uint64_t N = 0;
  bool Ok = std::fread(Magic, 1, sizeof(Magic), F) == sizeof(Magic) &&
            std::memcmp(Magic, FragMagic, sizeof(Magic)) == 0 &&
            std::fread(&N, sizeof(N), 1, F) == 1;
  if (Ok && N) {
    // A corrupt header could claim any count; cap it by what the file
    // can actually hold before sizing the output buffer.
    long DataPos = std::ftell(F);
    if (DataPos >= 0 && std::fseek(F, 0, SEEK_END) == 0) {
      long EndPos = std::ftell(F);
      uint64_t Cap = EndPos > DataPos
                         ? static_cast<uint64_t>(EndPos - DataPos) /
                               sizeof(TraceEvent)
                         : 0;
      if (N > Cap) {
        N = Cap;
        Ok = false;
      }
      std::fseek(F, DataPos, SEEK_SET);
    }
  }
  if (N) {
    size_t Base = Out.size();
    Out.resize(Base + N);
    size_t Read = std::fread(&Out[Base], sizeof(TraceEvent), N, F);
    if (Read != N) { // truncated fragment: keep the complete records
      Out.resize(Base + Read);
      Ok = false;
    }
  }
  std::fclose(F);
  return Ok;
}

} // namespace obs
} // namespace wbt

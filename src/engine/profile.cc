#include "engine/profile.h"

#include <algorithm>
#include <cstdio>
#include <vector>

namespace exrquy {
namespace {

void AppendJsonString(const std::string& s, std::string* out) {
  *out += '"';
  for (char c : s) {
    switch (c) {
      case '"':
        *out += "\\\"";
        break;
      case '\\':
        *out += "\\\\";
        break;
      case '\n':
        *out += "\\n";
        break;
      case '\t':
        *out += "\\t";
        break;
      case '\r':
        *out += "\\r";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          *out += buf;
        } else {
          *out += c;
        }
    }
  }
  *out += '"';
}

void AppendNumber(double v, std::string* out) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.3f", v);
  *out += buf;
}

}  // namespace

void Profile::Record(const Op& op, OpMetrics m) {
  total_ms_ += m.ms;
  Bucket& p = by_prov_[op.prov.empty() ? "(unlabeled)" : op.prov];
  p.ms += m.ms;
  p.ops += 1;
  p.out_rows += m.out_rows;
  Bucket& k = by_kind_[OpKindName(op.kind)];
  k.ms += m.ms;
  k.ops += 1;
  k.out_rows += m.out_rows;
  m.kind = OpKindName(op.kind);
  m.prov = op.prov;
  ops_.push_back(std::move(m));
  ops_sorted_ = false;
}

void Profile::RecordPipeline(PipelineMetrics m) {
  pipelines_.push_back(m);
  pipelines_sorted_ = false;
}

void Profile::SetExecution(size_t threads, bool release_intermediates) {
  threads_ = threads;
  release_intermediates_ = release_intermediates;
}

void Profile::SetMemory(size_t peak_live_bytes, size_t final_live_bytes,
                        size_t released_tables) {
  peak_live_bytes_ = peak_live_bytes;
  final_live_bytes_ = final_live_bytes;
  released_tables_ = released_tables;
}

void Profile::SetBudget(size_t limit_bytes, size_t charged_bytes,
                        size_t peak_bytes) {
  budget_limit_bytes_ = limit_bytes;
  budget_charged_bytes_ = charged_bytes;
  budget_peak_bytes_ = peak_bytes;
}

void Profile::SetCache(bool plan_cache_hit, bool result_cache_hit,
                       uint64_t result_evictions) {
  plan_cache_hit_ = plan_cache_hit;
  result_cache_hit_ = result_cache_hit;
  result_cache_evictions_ = result_evictions;
}

void Profile::SetAdmission(double queue_ms, uint32_t attempts,
                           bool degraded) {
  queue_ms_ = queue_ms;
  attempts_ = attempts;
  degraded_ = degraded;
}

const std::vector<Profile::OpMetrics>& Profile::ops() const {
  if (!ops_sorted_) {
    std::stable_sort(
        ops_.begin(), ops_.end(),
        [](const OpMetrics& a, const OpMetrics& b) { return a.op < b.op; });
    ops_sorted_ = true;
  }
  return ops_;
}

const std::vector<Profile::PipelineMetrics>& Profile::pipelines() const {
  if (!pipelines_sorted_) {
    std::stable_sort(pipelines_.begin(), pipelines_.end(),
                     [](const PipelineMetrics& a, const PipelineMetrics& b) {
                       return a.id < b.id;
                     });
    pipelines_sorted_ = true;
  }
  return pipelines_;
}

std::string Profile::ToString() const {
  std::vector<std::pair<std::string, Bucket>> rows(by_prov_.begin(),
                                                   by_prov_.end());
  std::sort(rows.begin(), rows.end(), [](const auto& a, const auto& b) {
    if (a.second.ms != b.second.ms) return a.second.ms > b.second.ms;
    return a.first < b.first;  // total key: equal-time labels stay ordered
  });
  std::string out;
  char buf[256];
  std::snprintf(buf, sizeof(buf), "%-58s %10s %6s %12s\n", "sub-expression",
                "time [ms]", "%", "rows");
  out += buf;
  for (const auto& [label, b] : rows) {
    double pct = total_ms_ > 0 ? 100.0 * b.ms / total_ms_ : 0;
    std::snprintf(buf, sizeof(buf), "%-58s %10.2f %5.1f%% %12zu\n",
                  label.c_str(), b.ms, pct, b.out_rows);
    out += buf;
  }
  std::snprintf(buf, sizeof(buf), "%-58s %10.2f\n", "total", total_ms_);
  out += buf;
  return out;
}

std::string Profile::ToJson() const {
  std::string out = "{\n";
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "  \"threads\": %zu,\n  \"release_intermediates\": %s,\n",
                threads_, release_intermediates_ ? "true" : "false");
  out += buf;
  out += "  \"total_ms\": ";
  AppendNumber(total_ms_, &out);
  std::snprintf(buf, sizeof(buf),
                ",\n  \"peak_live_bytes\": %zu,\n  \"final_live_bytes\": "
                "%zu,\n  \"released_tables\": %zu,\n",
                peak_live_bytes_, final_live_bytes_, released_tables_);
  out += buf;
  std::snprintf(buf, sizeof(buf),
                "  \"budget_limit_bytes\": %zu,\n  \"budget_charged_bytes\": "
                "%zu,\n  \"budget_peak_bytes\": %zu,\n",
                budget_limit_bytes_, budget_charged_bytes_,
                budget_peak_bytes_);
  out += buf;
  std::snprintf(buf, sizeof(buf),
                "  \"cache\": {\"plan_hit\": %s, \"result_hit\": %s, "
                "\"result_evictions\": %llu},\n",
                plan_cache_hit_ ? "true" : "false",
                result_cache_hit_ ? "true" : "false",
                static_cast<unsigned long long>(result_cache_evictions_));
  out += buf;
  out += "  \"admission\": {\"queue_ms\": ";
  AppendNumber(queue_ms_, &out);
  std::snprintf(buf, sizeof(buf), ", \"attempts\": %u, \"degraded\": %s},\n",
                attempts_, degraded_ ? "true" : "false");
  out += buf;
  out += "  \"ops\": [\n";
  const std::vector<OpMetrics>& records = ops();
  for (size_t i = 0; i < records.size(); ++i) {
    const OpMetrics& m = records[i];
    std::snprintf(buf, sizeof(buf), "    {\"op\": %u, \"kind\": ",
                  m.op);
    out += buf;
    AppendJsonString(m.kind, &out);
    out += ", \"prov\": ";
    AppendJsonString(m.prov, &out);
    out += ", \"ms\": ";
    AppendNumber(m.ms, &out);
    std::snprintf(buf, sizeof(buf),
                  ", \"in_rows\": %zu, \"out_rows\": %zu, \"chunks\": %zu, "
                  "\"pipeline\": %lld}",
                  m.in_rows, m.out_rows, m.chunks,
                  static_cast<long long>(m.pipeline));
    out += buf;
    out += i + 1 < records.size() ? ",\n" : "\n";
  }
  out += "  ],\n  \"pipelines\": [\n";
  const std::vector<PipelineMetrics>& pipes = pipelines();
  for (size_t p = 0; p < pipes.size(); ++p) {
    const PipelineMetrics& m = pipes[p];
    std::snprintf(buf, sizeof(buf),
                  "    {\"id\": %u, \"head\": %u, \"sink\": %u, \"stages\": "
                  "%zu, \"morsels\": %zu, \"ms\": ",
                  m.id, m.head, m.sink, m.stages, m.morsels);
    out += buf;
    AppendNumber(m.ms, &out);
    std::snprintf(buf, sizeof(buf), ", \"in_rows\": %zu, \"out_rows\": %zu}",
                  m.in_rows, m.out_rows);
    out += buf;
    out += p + 1 < pipes.size() ? ",\n" : "\n";
  }
  out += "  ],\n  \"by_kind\": {\n";
  size_t i = 0;
  for (const auto& [kind, b] : by_kind_) {
    out += "    ";
    AppendJsonString(kind, &out);
    out += ": {\"ms\": ";
    AppendNumber(b.ms, &out);
    std::snprintf(buf, sizeof(buf), ", \"ops\": %zu, \"out_rows\": %zu}",
                  b.ops, b.out_rows);
    out += buf;
    out += ++i < by_kind_.size() ? ",\n" : "\n";
  }
  out += "  }\n}\n";
  return out;
}

}  // namespace exrquy

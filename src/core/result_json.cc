#include "core/result_json.hh"

#include <algorithm>
#include <cstdio>
#include <string_view>

#include "common/log.hh"

namespace hades::core
{

namespace
{

void
appendEscaped(std::string &out, const std::string &s)
{
    out += '"';
    for (char c : s) {
        switch (c) {
          case '"':
            out += "\\\"";
            break;
          case '\\':
            out += "\\\\";
            break;
          case '\n':
            out += "\\n";
            break;
          case '\t':
            out += "\\t";
            break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                out += buf;
            } else {
                out += c;
            }
        }
    }
    out += '"';
}

/** Appends `"name":`, preceded by a comma unless it opens an object. */
void
key(std::string &out, const char *name)
{
    if (out.back() != '{')
        out += ',';
    out += '"';
    out += name;
    out += "\":";
}

void
value(std::string &out, std::uint64_t v)
{
    out += std::to_string(v);
}

void
value(std::string &out, std::uint32_t v)
{
    value(out, std::uint64_t(v));
}

void
value(std::string &out, std::int64_t v)
{
    out += std::to_string(v);
}

void
value(std::string &out, bool v)
{
    out += v ? "true" : "false";
}

void
value(std::string &out, double v)
{
    // %.17g round-trips IEEE doubles, so "bit-identical results" is a
    // claim consumers can check on the JSON alone.
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    out += buf;
}

void
value(std::string &out, const std::string &v)
{
    appendEscaped(out, v);
}

void
value(std::string &out, const char *v)
{
    appendEscaped(out, v);
}

template <class T>
void
field(std::string &out, const char *name, const T &v)
{
    key(out, name);
    value(out, v);
}

} // namespace

std::string
runSpecJson(const RunSpec &spec)
{
    const ClusterConfig &cc = spec.cluster;
    std::string out = "{";
    field(out, "engine", protocol::engineKindName(spec.engine));
    out += ",\"mix\":[";
    for (std::size_t i = 0; i < spec.mix.size(); ++i) {
        if (i)
            out += ',';
        std::string e = "{";
        field(e, "app", workload::appKindName(spec.mix[i].app));
        field(e, "store", kvs::storeKindName(spec.mix[i].store));
        e += '}';
        out += e;
    }
    out += ']';
    field(out, "txns_per_context", spec.txnsPerContext);
    field(out, "scale_keys", spec.scaleKeys);
    field(out, "nodes", cc.numNodes);
    field(out, "cores_per_node", cc.coresPerNode);
    field(out, "slots_per_core", cc.slotsPerCore);
    field(out, "seed", cc.seed);
    field(out, "net_round_trip_ps", cc.netRoundTrip);
    field(out, "forced_local_fraction", cc.forcedLocalFraction);
    field(out, "record_payload_bytes", cc.recordPayloadBytes);
    field(out, "replication_degree", spec.replication.degree);
    field(out, "faults_enabled", cc.faults.enabled);
    field(out, "recovery_enabled", cc.recovery.enabled);
    field(out, "grey_events", cc.faults.greyEvents.size());
    field(out, "slo_enabled", cc.slo.enabled);
    if (cc.slo.enabled) {
        field(out, "slo_hedge_reads", cc.slo.hedgeReads);
        field(out, "slo_quarantine", cc.slo.quarantine);
    }
    field(out, "admission_enabled", cc.admission.enabled);
    if (cc.membership.enabled()) {
        field(out, "initial_members",
              cc.membership.initialOwners(cc.numNodes));
        field(out, "migrate_batch_records",
              cc.membership.migrateBatchRecords);
        field(out, "migrate_batch_interval_ps",
              cc.membership.migrateBatchInterval);
        auto events = [&](const char *name, const auto &list) {
            key(out, name);
            out += '[';
            for (const auto &ev : list) {
                if (out.back() != '[')
                    out += ',';
                out += '{';
                field(out, "node", ev.node);
                field(out, "at_ps", ev.at);
                out += '}';
            }
            out += ']';
        };
        events("joins", cc.membership.joins);
        events("drains", cc.membership.drains);
    }
    field(out, "audit", spec.audit);
    field(out, "shards", spec.shards);
    out += '}';
    return out;
}

std::string
runResultJson(const RunResult &res)
{
    const txn::EngineStats &st = res.stats;
    std::string out = "{";
    field(out, "label", res.label);
    std::string stats = "{";
    forEachCounter(
        res,
        [&](const CounterInfo &c, auto v) {
            field(c.inStats() ? stats : out, c.key, v);
        },
        [&](CounterSlot slot) {
            switch (slot) {
              case CounterSlot::StatsArrays:
                key(stats, "squashes");
                stats += '{';
                for (std::size_t i = 0; i < st.squashes.size(); ++i)
                    field(stats,
                          txn::squashReasonName(txn::SquashReason(i)),
                          st.squashes[i]);
                stats += '}';
                field(stats, "latency_count", st.latency.count());
                field(stats, "latency_mean_ps", st.latency.mean());
                field(stats, "latency_p50_ps", st.latency.p50());
                field(stats, "latency_p95_ps", st.latency.p95());
                field(stats, "latency_p99_ps", st.latency.p99());
                break;
              case CounterSlot::Derived:
                field(out, "throughput_tps", res.throughputTps);
                field(out, "mean_latency_us", res.meanLatencyUs);
                field(out, "p50_latency_us", res.p50LatencyUs);
                field(out, "p95_latency_us", res.p95LatencyUs);
                field(out, "exec_us", res.execUs);
                field(out, "validation_us", res.validationUs);
                field(out, "commit_us", res.commitUs);
                key(out, "overhead_share");
                out += '[';
                for (std::size_t i = 0; i < res.overheadShare.size(); ++i) {
                    if (i)
                        out += ',';
                    value(out, res.overheadShare[i]);
                }
                out += ']';
                field(out, "other_share", res.otherShare);
                field(out, "squash_rate", res.squashRate);
                field(out, "eviction_squash_rate", res.evictionSquashRate);
                field(out, "bf_false_positive_rate",
                      res.bfFalsePositiveRate);
                break;
              case CounterSlot::Retired:
                break;
            }
        });
    out += ",\"stats\":" + stats + "}}";
    return out;
}

std::string
counterSummary(const RunResult &res)
{
    struct Line
    {
        std::string_view group;
        std::string text;
        bool nonzero = false;
    };
    std::vector<Line> lines; // in order of first appearance
    forEachCounter(
        res,
        [&](const CounterInfo &c, auto v) {
            if (!c.group)
                return;
            auto it = std::find_if(lines.begin(), lines.end(),
                                   [&](const Line &l) {
                                       return l.group == c.group;
                                   });
            if (it == lines.end())
                it = lines.insert(lines.end(), Line{c.group, {}});
            it->text += ' ';
            it->text += c.key;
            it->text += '=';
            value(it->text, v);
            it->nonzero = it->nonzero || v;
        },
        [](CounterSlot) {});
    std::string out;
    for (const Line &l : lines) {
        if (!l.nonzero)
            continue;
        char label[16];
        std::snprintf(label, sizeof(label), "%-13s", l.group.data());
        out += label + l.text + '\n';
    }
    return out;
}

std::string
sweepReportJson(const std::string &tool, unsigned jobs, bool smoke,
                const std::vector<JsonRun> &runs)
{
    std::string out = "{";
    field(out, "schema", "hades-sweep-v1");
    field(out, "tool", tool);
    field(out, "jobs", jobs);
    field(out, "smoke", smoke);
    out += ",\"runs\":[";
    for (std::size_t i = 0; i < runs.size(); ++i) {
        const JsonRun &r = runs[i];
        if (i)
            out += ',';
        std::string entry = "{";
        field(entry, "index", r.outcome->index);
        field(entry, "key", r.key);
        field(entry, "ok", r.outcome->ok);
        if (!r.outcome->ok)
            field(entry, "error", r.outcome->error);
        entry += ",\"spec\":";
        entry += runSpecJson(*r.spec);
        if (r.outcome->ok) {
            entry += ",\"result\":";
            entry += runResultJson(r.outcome->result);
        }
        entry += '}';
        out += entry;
    }
    out += "]}\n";
    return out;
}

void
writeJsonFile(const std::string &path, const std::string &json)
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        fatal("cannot open --json output file for writing");
    const std::size_t n =
        std::fwrite(json.data(), 1, json.size(), f);
    const bool ok = n == json.size() && std::fclose(f) == 0;
    if (!ok)
        fatal("short write to --json output file");
}

} // namespace hades::core

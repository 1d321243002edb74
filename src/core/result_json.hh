/**
 * @file
 * Machine-readable sweep results.
 *
 * Serializes sweep outcomes to a stable JSON document so figure
 * pipelines and external tooling can consume bench output without
 * scraping tables. Schema (version "hades-sweep-v1"):
 *
 *   {
 *     "schema": "hades-sweep-v1",
 *     "tool":   "<bench binary / producer name>",
 *     "jobs":   <worker threads used>,
 *     "smoke":  <true if specs were smoke-shrunk>,
 *     "runs": [ {
 *         "index": <spec index>, "key": "<caller's stable key>",
 *         "ok": <bool>, "error": "<why, when !ok>",
 *         "spec": { engine/mix/cluster geometry/seed/faults/audit echo },
 *         "result": { every RunResult field, ticks as integers,
 *                     rates as doubles, "stats": EngineStats counters;
 *                     counter keys in counters.hh table order }
 *     } ]
 *   }
 *
 * Fields are only ever added, never renamed or removed, so consumers
 * can pin the schema string.
 */

#ifndef HADES_CORE_RESULT_JSON_HH_
#define HADES_CORE_RESULT_JSON_HH_

#include <cstdio>
#include <string>
#include <vector>

#include "core/sweep.hh"

namespace hades::core
{

/** One named sweep entry to serialize. */
struct JsonRun
{
    std::string key;       //!< caller-stable identifier of the spec
    const RunSpec *spec;   //!< spec as run (post-smoke-shrink)
    const RunOutcome *outcome;
};

/** Serialize a full sweep report document. */
std::string sweepReportJson(const std::string &tool, unsigned jobs,
                            bool smoke,
                            const std::vector<JsonRun> &runs);

/** Serialize one spec (object, no trailing newline). */
std::string runSpecJson(const RunSpec &spec);

/** Serialize one result (object, no trailing newline). */
std::string runResultJson(const RunResult &res);

/** The CLI's counter report: one `group  key=value ...` line per
 *  counter-table group (counters.hh) that has a nonzero row. */
std::string counterSummary(const RunResult &res);

/** Write @p json to @p path; fatal() on I/O failure. */
void writeJsonFile(const std::string &path, const std::string &json);

} // namespace hades::core

#endif // HADES_CORE_RESULT_JSON_HH_

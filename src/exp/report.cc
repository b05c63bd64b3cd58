#include "exp/report.hh"

#include <cmath>
#include <fstream>
#include <iomanip>
#include <ostream>
#include <sstream>

#include "sim/audit.hh"
#include "sim/logging.hh"
#include "trace/digest.hh"

#ifndef GPUWALK_GIT_SHA
#define GPUWALK_GIT_SHA "unknown"
#endif

namespace gpuwalk::exp {

namespace {

void
jsonEscape(std::ostream &os, const std::string &s)
{
    os << '"';
    for (const char c : s) {
        switch (c) {
        case '"': os << "\\\""; break;
        case '\\': os << "\\\\"; break;
        case '\n': os << "\\n"; break;
        case '\t': os << "\\t"; break;
        case '\r': os << "\\r"; break;
        default:
            if (static_cast<unsigned char>(c) < 0x20) {
                os << "\\u" << std::hex << std::setw(4)
                   << std::setfill('0') << static_cast<int>(c)
                   << std::dec << std::setfill(' ');
            } else {
                os << c;
            }
        }
    }
    os << '"';
}

void
jsonNumber(std::ostream &os, double v)
{
    // JSON has no NaN/Inf literal; degenerate metrics (empty geomean,
    // zero-runtime speedup) serialize as null rather than producing
    // unparseable output.
    if (!std::isfinite(v)) {
        os << "null";
        return;
    }
    // Round-trippable doubles; identical values print identically, so
    // byte-comparing JSON is a valid determinism check.
    os << std::setprecision(17) << v << std::setprecision(6);
}

template <typename T>
void
jsonUintArray(std::ostream &os, const std::vector<T> &values)
{
    os << '[';
    for (std::size_t i = 0; i < values.size(); ++i)
        os << (i ? "," : "") << values[i];
    os << ']';
}

void
jsonDoubleArray(std::ostream &os, const std::vector<double> &values)
{
    os << '[';
    for (std::size_t i = 0; i < values.size(); ++i) {
        os << (i ? "," : "");
        jsonNumber(os, values[i]);
    }
    os << ']';
}

} // namespace

void
Report::Table::addRow(std::vector<std::string> cells)
{
    rows.push_back(Row{std::move(cells), false});
}

void
Report::Table::addRule()
{
    rows.push_back(Row{{}, true});
}

Report::Report(std::string id, std::string description,
               const system::SystemConfig &cfg)
    : id_(std::move(id)), description_(std::move(description)),
      have_cfg_(true), cfg_(cfg)
{}

Report::Report(std::string id, std::string description)
    : id_(std::move(id)), description_(std::move(description))
{}

Report::Table &
Report::addTable(std::vector<std::string> columns, std::string title,
                 unsigned width)
{
    Table table;
    table.title = std::move(title);
    table.columns = std::move(columns);
    table.width = width;
    tables_.push_back(std::move(table));
    return tables_.back();
}

void
Report::addNote(std::string text)
{
    notes_.push_back(std::move(text));
}

void
Report::addSummary(const std::string &key, double value)
{
    summary_.emplace_back(key, value);
}

void
Report::render(std::ostream &os) const
{
    if (have_cfg_)
        printBanner(os, id_, description_, cfg_);
    else
        os << id_ << ": " << description_ << "\n";

    for (const auto &table : tables_) {
        if (!table.title.empty())
            os << "\n" << table.title << "\n";
        TablePrinter printer(table.columns, table.width);
        printer.printHeader(os);
        for (const auto &row : table.rows) {
            if (row.rule)
                printer.printRule(os);
            else
                printer.printRow(os, row.cells);
        }
    }
    for (const auto &note : notes_)
        os << "\n" << note << "\n";
}

void
Report::setRuns(SweepResult result)
{
    result_ = std::move(result);
}

void
Report::writeJson(std::ostream &os) const
{
    const SweepResult *result = result_ ? &*result_ : nullptr;
    os << "{\"schema_version\": 1, \"experiment\": {\"id\": ";
    jsonEscape(os, id_);
    os << ", \"description\": ";
    jsonEscape(os, description_);
    os << "}, \"git_sha\": ";
    jsonEscape(os, gitSha());
    os << ", \"config_fingerprint\": ";
    if (have_cfg_)
        jsonEscape(os, configFingerprint(cfg_));
    else
        os << "null";

    os << ", \"jobs\": " << (result ? result->jobsUsed() : 0)
       << ", \"wall_seconds\": ";
    jsonNumber(os, result ? result->wallSeconds() : 0.0);

    os << ", \"runs\": [";
    if (result) {
        bool first = true;
        for (const auto &run : result->runs()) {
            os << (first ? "" : ", ");
            first = false;
            os << "{\"workload\": ";
            jsonEscape(os, run.workload);
            os << ", \"scheduler\": ";
            jsonEscape(os, run.scheduler);
            os << ", \"variant\": ";
            jsonEscape(os, run.variant);
            os << ", \"seed\": " << run.seed << ", \"wall_seconds\": ";
            jsonNumber(os, run.wallSeconds);
            os << ", \"stats\": ";
            statsJson(os, run.stats);
            os << ", \"extra\": {";
            bool first_extra = true;
            for (const auto &[key, value] : run.extra) {
                os << (first_extra ? "" : ", ");
                first_extra = false;
                jsonEscape(os, key);
                os << ": ";
                jsonNumber(os, value);
            }
            os << "}}";
        }
    }
    os << "]";

    os << ", \"summary\": {";
    for (std::size_t i = 0; i < summary_.size(); ++i) {
        os << (i ? ", " : "");
        jsonEscape(os, summary_[i].first);
        os << ": ";
        jsonNumber(os, summary_[i].second);
    }
    os << "}";

    os << ", \"tables\": [";
    bool first_table = true;
    for (const auto &table : tables_) {
        os << (first_table ? "" : ", ");
        first_table = false;
        os << "{\"title\": ";
        jsonEscape(os, table.title);
        os << ", \"columns\": [";
        for (std::size_t i = 0; i < table.columns.size(); ++i) {
            os << (i ? ", " : "");
            jsonEscape(os, table.columns[i]);
        }
        os << "], \"rows\": [";
        bool first_row = true;
        for (const auto &row : table.rows) {
            if (row.rule)
                continue;
            os << (first_row ? "" : ", ") << "[";
            first_row = false;
            for (std::size_t i = 0; i < row.cells.size(); ++i) {
                os << (i ? ", " : "");
                jsonEscape(os, row.cells[i]);
            }
            os << "]";
        }
        os << "]}";
    }
    os << "]}\n";
}

void
Report::writeJsonFile(const std::string &path) const
{
    std::ofstream os(path);
    if (!os)
        sim::fatal("cannot open '", path, "' for JSON output");
    writeJson(os);
}

std::string
configFingerprint(const system::SystemConfig &cfg)
{
    std::ostringstream text;
    cfg.print(text);
    // FNV-1a over the printed form: any knob that shows up in the
    // banner changes the fingerprint.
    std::uint64_t hash = 0xcbf29ce484222325ull;
    for (const char c : text.str()) {
        hash ^= static_cast<unsigned char>(c);
        hash *= 0x100000001b3ull;
    }
    std::ostringstream os;
    os << std::hex << std::setw(16) << std::setfill('0') << hash;
    return os.str();
}

std::string
gitSha()
{
    return GPUWALK_GIT_SHA;
}

void
statsJson(std::ostream &os, const system::RunStats &stats)
{
    os << "{\"runtime_ticks\": " << stats.runtimeTicks
       << ", \"stall_ticks\": " << stats.stallTicks
       << ", \"instructions\": " << stats.instructions
       << ", \"events_executed\": " << stats.eventsExecuted
       << ", \"app_finish_ticks\": ";
    jsonUintArray(os, stats.appFinishTicks);
    os << ", \"translation_requests\": " << stats.translationRequests
       << ", \"walk_requests\": " << stats.walkRequests
       << ", \"walks_completed\": " << stats.walksCompleted
       << ", \"avg_wavefronts_per_epoch\": ";
    jsonNumber(os, stats.avgWavefrontsPerEpoch);

    const auto &walks = stats.walks;
    os << ", \"walks\": {\"instructions_with_walks\": "
       << walks.instructionsWithWalks
       << ", \"multi_walk_instructions\": "
       << walks.multiWalkInstructions
       << ", \"interleaved_instructions\": "
       << walks.interleavedInstructions
       << ", \"interleaved_fraction\": ";
    jsonNumber(os, walks.interleavedFraction);
    os << ", \"total_walks\": " << walks.totalWalks
       << ", \"total_mem_accesses\": " << walks.totalMemAccesses
       << ", \"avg_first_completed_latency\": ";
    jsonNumber(os, walks.avgFirstCompletedLatency);
    os << ", \"avg_last_completed_latency\": ";
    jsonNumber(os, walks.avgLastCompletedLatency);
    os << ", \"avg_latency_gap\": ";
    jsonNumber(os, walks.avgLatencyGap);
    os << ", \"work_bucket_counts\": ";
    jsonUintArray(os, walks.workBucketCounts);
    os << ", \"work_bucket_fractions\": ";
    jsonDoubleArray(os, walks.workBucketFractions);
    os << "}";

    const auto dist =
        [&os](const iommu::LatencyBreakdownSummary::Dist &d) {
            os << "{\"bucket_counts\": ";
            jsonUintArray(os, d.bucketCounts);
            os << ", \"samples\": " << d.samples << ", \"avg\": ";
            jsonNumber(os, d.avg);
            os << "}";
        };
    const auto &lat = stats.latency;
    os << ", \"latency_breakdown\": {\"bucket_bounds\": ";
    jsonUintArray(os, iommu::latencyBucketBounds());
    os << ", \"queue_wait\": ";
    dist(lat.queueWait);
    os << ", \"walker_service\": ";
    dist(lat.walkerService);
    os << ", \"level_mem\": [";
    for (std::size_t l = 0; l < lat.levelMem.size(); ++l) {
        os << (l ? ", " : "");
        dist(lat.levelMem[l]);
    }
    os << "]}";

    os << ", \"traced\": " << (stats.traced ? "true" : "false");
    if (stats.traced) {
        os << ", \"trace_digest\": ";
        jsonEscape(os, trace::digestHex(stats.traceDigest));
        os << ", \"trace_events\": " << stats.traceEvents
           << ", \"trace_dropped\": " << stats.traceDropped;
    }

    os << ", \"audited\": " << (stats.audited ? "true" : "false");
    if (stats.audited) {
        os << ", \"audit\": {\"checks\": " << stats.auditChecks
           << ", \"violations\": " << stats.auditViolations
           << ", \"findings\": [";
        bool first = true;
        for (const auto &finding : stats.auditFindings) {
            os << (first ? "" : ", ");
            first = false;
            os << "{\"invariant\": ";
            jsonEscape(os, finding.invariant);
            os << ", \"phase\": ";
            jsonEscape(os, sim::toString(finding.phase));
            os << ", \"tick\": " << finding.tick << ", \"message\": ";
            jsonEscape(os, finding.message);
            os << "}";
        }
        os << "]}";
    }

    // Demand-paging runs only: fully resident stats JSON stays
    // byte-identical to the pre-GMMU writer.
    if (stats.gmmu.enabled) {
        const auto &g = stats.gmmu;
        os << ", \"gmmu\": {\"frame_cap\": " << g.frameCap
           << ", \"resident_peak\": " << g.residentPeak
           << ", \"resident_final\": " << g.residentFinal
           << ", \"faults_raised\": " << g.faultsRaised
           << ", \"faults_serviced\": " << g.faultsServiced
           << ", \"faults_coalesced\": " << g.faultsCoalesced
           << ", \"batches\": " << g.batches
           << ", \"pages_migrated\": " << g.pagesMigrated
           << ", \"pages_evicted\": " << g.pagesEvicted
           << ", \"promotions\": " << g.promotions
           << ", \"demotions\": " << g.demotions
           << ", \"service_retries\": " << g.serviceRetries
           << ", \"fault_latency\": {\"bucket_bounds\": ";
        jsonUintArray(os, vm::faultLatencyBucketBounds());
        os << ", \"bucket_counts\": ";
        jsonUintArray(os, g.latencyBucketCounts);
        os << ", \"samples\": " << g.latencySamples << ", \"avg\": ";
        jsonNumber(os, g.latencyAvg);
        os << "}}";
    }

    // Prefetch-enabled runs only: --prefetch=off stats JSON stays
    // byte-identical to the pre-prefetcher writer.
    if (stats.prefetch.enabled) {
        const auto &p = stats.prefetch;
        os << ", \"prefetch\": {\"policy\": ";
        jsonEscape(os, p.policy);
        os << ", \"issued\": " << p.issued
           << ", \"completed\": " << p.completed
           << ", \"useful\": " << p.useful
           << ", \"evicted_unused\": " << p.evictedUnused
           << ", \"unused_at_end\": " << p.unusedAtEnd
           << ", \"accuracy\": ";
        jsonNumber(os, p.accuracy);
        os << ", \"coverage\": ";
        jsonNumber(os, p.coverage);
        os << ", \"pollution\": ";
        jsonNumber(os, p.pollution);
        os << "}";
    }

    // Multi-tenant runs only: single-tenant stats JSON stays
    // byte-identical to the pre-ASID writer.
    if (!stats.tenants.empty()) {
        os << ", \"tenants\": [";
        bool first = true;
        for (const auto &t : stats.tenants) {
            os << (first ? "" : ", ");
            first = false;
            os << "{\"ctx\": " << t.ctx
               << ", \"walk_requests\": " << t.walkRequests
               << ", \"walks_completed\": " << t.walksCompleted
               << ", \"dispatches\": " << t.dispatches
               << ", \"queue_wait_ticks\": " << t.queueWaitTicks
               << ", \"service_ticks\": " << t.serviceTicks
               << ", \"finish_tick\": " << t.finishTick << "}";
        }
        os << "]";
    }
    os << "}";
}

std::string
statsJsonString(const system::RunStats &stats)
{
    std::ostringstream os;
    statsJson(os, stats);
    return os.str();
}

} // namespace gpuwalk::exp

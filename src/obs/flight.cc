#include "obs/flight.hh"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <vector>

#include "obs/ring.hh"
#include "obs/stats.hh"
#include "obs/trace.hh"

/** Stamped by the build system; hev_obs carries the provenance. */
#ifndef HEV_GIT_SHA
#define HEV_GIT_SHA "unknown"
#endif

namespace hev::obs
{

namespace
{

using Rings = detail::PerThreadRing<FlightRecord, flightRingCapacity,
                                    FlightDump>;

std::atomic<u16> nextRunTag{1};

} // namespace

namespace detail
{

void
flightRecordSlow(const FlightRecord &record)
{
    FlightRecord stamped = record;
    stamped.ts = traceNowNs();
    Rings::push(stamped);
}

} // namespace detail

u16
newFlightRunTag()
{
    u16 tag = nextRunTag.fetch_add(1, std::memory_order_relaxed);
    // Tag 0 means "no filter" in flightTail; never hand it out.  The
    // 16-bit wrap is harmless: rings hold 256 records, so a reused
    // tag's old records were evicted tens of thousands of runs ago.
    while (tag == 0)
        tag = nextRunTag.fetch_add(1, std::memory_order_relaxed);
    return tag;
}

std::vector<FlightDump>
collectFlight()
{
    return Rings::collect();
}

void
clearFlight()
{
    Rings::clear();
}

std::vector<FlightRecord>
flightTail(u16 run_tag, u64 last_per_thread)
{
    std::vector<FlightRecord> merged;
    for (const FlightDump &dump : collectFlight()) {
        std::vector<FlightRecord> kept;
        for (const FlightRecord &record : dump.records) {
            if (run_tag == 0 || record.runTag == run_tag)
                kept.push_back(record);
        }
        if (last_per_thread && kept.size() > last_per_thread)
            kept.erase(kept.begin(),
                       kept.end() - ptrdiff_t(last_per_thread));
        merged.insert(merged.end(), kept.begin(), kept.end());
    }
    // Sort pointers, not records: libstdc++'s stable_sort scratch
    // buffer ignores FlightRecord's 64-byte alignment (UBSan flags the
    // misaligned stores).
    std::vector<const FlightRecord *> order;
    order.reserve(merged.size());
    for (const FlightRecord &record : merged)
        order.push_back(&record);
    std::stable_sort(order.begin(), order.end(),
                     [](const FlightRecord *a, const FlightRecord *b) {
                         return a->ts < b->ts;
                     });
    std::vector<FlightRecord> tail;
    tail.reserve(order.size());
    for (const FlightRecord *record : order)
        tail.push_back(*record);
    return tail;
}

u64
flightArgsDigest(const FlightRecord &record)
{
    constexpr u64 fnvOffset = 0xcbf29ce484222325ull;
    constexpr u64 fnvPrime = 0x100000001b3ull;
    u64 hash = fnvOffset;
    for (u64 word : {record.a, record.b, record.c, record.d}) {
        for (u32 byte = 0; byte < 8; ++byte) {
            hash ^= (word >> (byte * 8)) & 0xff;
            hash *= fnvPrime;
        }
    }
    return hash;
}

namespace
{

std::string
jsonEscape(const std::string &text)
{
    std::string out;
    out.reserve(text.size());
    for (char c : text) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\t': out += "\\t"; break;
          default:
            if (u8(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

std::string
opLabel(const ForensicsBundle &bundle, u16 op)
{
    if (bundle.opName) {
        std::string label = bundle.opName(op);
        if (!label.empty())
            return label;
    }
    return "op" + std::to_string(op);
}

} // namespace

std::string
renderForensicsJson(const ForensicsBundle &bundle)
{
    std::ostringstream out;
    out << "{\n"
        << "  \"forensics_schema_version\": " << forensicsSchemaVersion
        << ",\n"
        << "  \"git_sha\": \"" << HEV_GIT_SHA << "\",\n"
        << "  \"kind\": \"" << jsonEscape(bundle.kind) << "\",\n"
        << "  \"scenario\": \"" << jsonEscape(bundle.scenario)
        << "\",\n"
        << "  \"detail\": \"" << jsonEscape(bundle.detail) << "\",\n"
        << "  \"failed_op\": " << bundle.failedOp << ",\n";

    out << "  \"digests\": {";
    bool first = true;
    for (const auto &[name, value] : bundle.digests) {
        out << (first ? "" : ",") << "\n    \"" << jsonEscape(name)
            << "\": " << value;
        first = false;
    }
    out << (first ? "" : "\n  ") << "},\n";

    out << "  \"flight\": [";
    first = true;
    for (const FlightRecord &record : bundle.tail) {
        out << (first ? "" : ",") << "\n    {\"ts\": " << record.ts
            << ", \"op\": \"" << jsonEscape(opLabel(bundle, record.op))
            << "\", \"opcode\": " << record.op
            << ", \"vcpu\": " << u32(record.vcpu)
            << ", \"step\": " << record.step << ", \"args\": ["
            << record.a << ", " << record.b << ", " << record.c << ", "
            << record.d
            << "], \"args_digest\": " << flightArgsDigest(record)
            << ", \"result\": " << record.result << ", \"replayable\": "
            << ((record.flags & flightReplayable) ? "true" : "false")
            << "}";
        first = false;
    }
    out << (first ? "" : "\n  ") << "],\n";

    out << "  \"stats\": " << renderStatsJson(snapshotStats(), "  ")
        << ",\n";
    out << "  \"trace_tail\": \"" << jsonEscape(bundle.traceTail)
        << "\"\n}\n";
    return out.str();
}

bool
writeForensicsBundle(const ForensicsBundle &bundle,
                     const std::string &path)
{
    std::ofstream out(path);
    if (!out)
        return false;
    out << renderForensicsJson(bundle);
    if (!out)
        return false;
    if (!bundle.traceTail.empty()) {
        std::ofstream trace(path + ".trace");
        if (!trace)
            return false;
        trace << bundle.traceTail;
        if (!trace)
            return false;
    }
    return true;
}

std::string
forensicsPathOrEnv(const std::string &configured)
{
    if (!configured.empty())
        return configured;
    const char *env = std::getenv("HEV_FORENSICS");
    return env ? env : "";
}

} // namespace hev::obs

#include "harness/world.h"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <cstdlib>

#include <sys/prctl.h>
#include <sys/resource.h>

#include "core/policy_parser.h"
#include "harness/stats.h"
#include "sql/parser.h"
#include "workload/patients.h"
#include "workload/policies.h"

namespace perfbench {

using namespace aapac;

namespace {

void Check(const Status& st, const char* what) {
  if (st.ok()) return;
  std::fprintf(stderr, "set-up failed (%s): %s\n", what,
               st.ToString().c_str());
  std::exit(2);
}

}  // namespace

uint64_t StreamSeed(uint64_t seed, uint64_t stream) {
  uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (stream + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::unique_ptr<World> BuildWorld(const WorldConfig& config) {
  auto w = std::make_unique<World>();
  w->db = std::make_unique<engine::Database>();
  workload::PatientsConfig pc;
  pc.num_patients = config.patients;
  pc.samples_per_patient = config.samples;
  pc.seed = StreamSeed(config.seed, 0);
  Check(workload::BuildPatientsDatabase(w->db.get(), pc), "data");
  w->catalog = std::make_unique<core::AccessControlCatalog>(w->db.get());
  Check(w->catalog->Initialize(), "catalog");
  Check(workload::ConfigurePatientsAccessControl(w->catalog.get()),
        "access control");
  w->monitor =
      std::make_unique<core::EnforcementMonitor>(w->db.get(), w->catalog.get());
  w->policies = std::make_unique<core::PolicyManager>(w->catalog.get());
  workload::ScatteredPolicyConfig sp;
  sp.selectivity = config.selectivity;
  sp.seed = StreamSeed(config.seed, 1);
  Check(workload::ApplyScatteredPolicies(w->catalog.get(), sp), "policies");
  if (config.watch_index) {
    // The same DDL an operator types into the shell.
    auto stmt = sql::ParseStatement(
        "CREATE INDEX ix_watch ON sensed_data(watch_id) USING HASH");
    if (!stmt.ok() || stmt->create_index == nullptr) {
      Check(stmt.ok() ? Status::Internal("not a CREATE INDEX") : stmt.status(),
            "index ddl");
    }
    const auto& ci = *stmt->create_index;
    auto table = w->db->GetTable(ci.table);
    Check(table.status(), "index table");
    Check((*table)->CreateIndex(ci.index, ci.column,
                                ci.ordered ? engine::IndexKind::kOrdered
                                           : engine::IndexKind::kHash),
          "index");
  }
  if (config.serve) {
    Check(w->monitor->EnableAuditLog(), "audit");
    server::ServerOptions options;
    options.threads = kServerThreads;
    w->server =
        std::make_unique<server::EnforcementServer>(w->monitor.get(), options);
  }
  return w;
}

std::unique_ptr<World> BuildWorldTimed(const WorldConfig& config,
                                       double* median_s) {
  // At least 5 set-ups, and enough of them to fill 1 s, so that the
  // median of a millisecond set-up is as steady as that of a long one.
  std::vector<double> seconds;
  std::unique_ptr<World> world;
  double total = 0;
  while (seconds.size() < 5 || (total < 1.0 && seconds.size() < 500)) {
    world.reset();
    const auto start = Clock::now();
    world = BuildWorld(config);
    seconds.push_back(MsSince(start) / 1000.0);
    total += seconds.back();
  }
  *median_s = Median(seconds);
  return world;
}

uint64_t Digest(const engine::ResultSet& rs) {
  uint64_t h = 1469598103934665603ULL;
  auto mix = [&h](const std::string& s) {
    for (unsigned char c : s) {
      h ^= c;
      h *= 1099511628211ULL;
    }
    h ^= 0xff;
    h *= 1099511628211ULL;
  };
  for (const auto& name : rs.column_names) mix(name);
  for (const auto& row : rs.rows) {
    for (const auto& v : row) mix(v.is_null() ? "\x01NULL" : v.ToString());
    mix("\x02");
  }
  return h;
}

void UsePreciseSleeps() {
  // The default 50 us timer slack would add to every scheduled send.
  prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux.
}

bool HasSubquery(const std::string& sql) {
  std::string lower(sql);
  std::transform(lower.begin(), lower.end(), lower.begin(),
                 [](unsigned char c) { return std::tolower(c); });
  size_t count = 0;
  for (size_t pos = lower.find("select"); pos != std::string::npos;
       pos = lower.find("select", pos + 6)) {
    ++count;
  }
  return count > 1;
}

Shape ShapeOf(const std::string& description) {
  if (description.find("aggregate") != std::string::npos) {
    return Shape::kAggregate;
  }
  if (description.find("join") != std::string::npos) return Shape::kJoin;
  return Shape::kSingle;
}

const std::vector<std::string>& PurposeIds() {
  static const std::vector<std::string> ids = {"p1", "p2", "p3", "p4",
                                               "p5", "p6", "p7", "p8"};
  return ids;
}

std::string RandomPolicyText(std::mt19937_64& rng,
                             const std::string& must_allow) {
  auto purposes = [&rng] {
    std::string out;
    for (const auto& p : PurposeIds()) {
      if (rng() % 3 == 0) out += (out.empty() ? "" : ", ") + p;
    }
    return out.empty() ? PurposeIds()[rng() % 8] : out;
  };
  static const char* kActions[] = {"direct single raw", "direct single aggregate",
                                   "direct multiple raw",
                                   "direct multiple aggregate", "indirect"};
  std::string text;
  const int rules = 1 + static_cast<int>(rng() % 3);
  for (int r = 0; r < rules; ++r) {
    if (!text.empty()) text += "; ";
    const char* action = kActions[rng() % 5];
    text += "allow " + purposes() + " " + action + " on *";
    if (std::string(action) != "indirect") text += " joint(all)";
  }
  if (!must_allow.empty()) {
    text += "; allow " + must_allow +
            " direct single raw on * joint(all); allow " + must_allow +
            " direct multiple raw on * joint(all); allow " + must_allow +
            " indirect on *";
  }
  return text;
}

core::Policy ParsePolicyOrDie(const core::AccessControlCatalog& catalog,
                              const std::string& table,
                              const std::string& text) {
  auto policy = core::ParsePolicyText(catalog, table, text);
  Check(policy.status(), "policy text");
  return *std::move(policy);
}

}  // namespace perfbench

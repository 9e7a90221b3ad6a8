#include "harness/oracle.h"

#include <set>
#include <unordered_map>

#include "core/compliance.h"
#include "core/monitor.h"
#include "core/signature_builder.h"
#include "harness/world.h"
#include "sql/parser.h"

namespace perfbench {

using namespace aapac;

Result<ReferenceMonitor::MaskSets> ReferenceMonitor::Masks(
    const std::string& sql, const std::string& purpose_id) const {
  if (HasSubquery(sql)) {
    return Status::Unsupported("sub-query statements are not brute-forced");
  }
  AAPAC_ASSIGN_OR_RETURN(std::unique_ptr<sql::SelectStmt> stmt,
                         sql::ParseSelect(sql));
  core::SignatureBuilder builder(catalog_);
  AAPAC_ASSIGN_OR_RETURN(std::unique_ptr<core::QuerySignature> qs,
                         builder.Derive(*stmt, purpose_id));
  MaskSets masks;
  std::set<std::string> seen;
  for (const core::TableSignature& ts : qs->tables) {
    if (!catalog_->IsProtected(ts.table)) continue;
    // One filtered clone cannot hold two bindings' different views.
    if (!seen.insert(ts.table).second) {
      return Status::Unsupported("protected table under two bindings");
    }
    AAPAC_ASSIGN_OR_RETURN(core::MaskLayout layout,
                           catalog_->LayoutFor(ts.table));
    auto& out = masks[ts.table];
    for (const core::ActionSignature& as : ts.actions) {
      AAPAC_ASSIGN_OR_RETURN(BitString mask,
                             layout.EncodeActionSignature(as, purpose_id));
      out.push_back(mask.ToBytes());
    }
  }
  return masks;
}

namespace {

std::string KeyOf(const std::map<std::string, std::vector<std::string>>& masks) {
  std::string key;
  for (const auto& [table, list] : masks) {
    key += table;
    for (const auto& m : list) key += '\x01' + m;
    key += '\x02';
  }
  return key;
}

}  // namespace

Result<std::string> ReferenceMonitor::CloneKey(const std::string& sql,
                                               const std::string& purpose_id) {
  AAPAC_ASSIGN_OR_RETURN(MaskSets masks, Masks(sql, purpose_id));
  return KeyOf(masks);
}

std::unique_ptr<engine::Database> ReferenceMonitor::BuildClone(
    const MaskSets& masks) const {
  auto clone = std::make_unique<engine::Database>();
  for (const std::string& name : db_->TableNames()) {
    if (name == core::EnforcementMonitor::kAuditTable) continue;
    const engine::Table* src = db_->FindTable(name);
    auto created = clone->CreateTable(name, src->schema());
    if (!created.ok()) return nullptr;
    engine::Table* dst = *created;
    const auto it = masks.find(name);
    if (it == masks.end()) {
      dst->Reserve(src->num_rows());
      for (const auto& row : src->rows()) dst->InsertUnchecked(row);
      continue;
    }
    const auto policy_col =
        src->schema().FindColumn(core::AccessControlCatalog::kPolicyColumn);
    if (!policy_col.has_value()) return nullptr;
    // Tuples share few distinct policies: decide each policy once.
    std::unordered_map<std::string, bool> verdicts;
    for (const auto& row : src->rows()) {
      const engine::Value& policy = row[*policy_col];
      if (policy.is_null()) continue;  // No policy: complies with nothing.
      auto [v, fresh] = verdicts.try_emplace(policy.AsBytes(), true);
      if (fresh) {
        for (const std::string& mask : it->second) {
          if (!core::CompliesWithPacked(mask, policy.AsBytes())) {
            v->second = false;
            break;
          }
        }
      }
      if (v->second) dst->InsertUnchecked(row);
    }
  }
  return clone;
}

Result<engine::ResultSet> ReferenceMonitor::Execute(
    const std::string& sql, const std::string& purpose_id) {
  AAPAC_ASSIGN_OR_RETURN(MaskSets masks, Masks(sql, purpose_id));
  const std::string key = KeyOf(masks);
  if (clone_ == nullptr || key != clone_key_) {
    clone_.reset();
    clone_ = BuildClone(masks);
    if (clone_ == nullptr) return Status::Internal("clone build failed");
    clone_key_ = key;
  }
  engine::Executor executor(clone_.get());
  return executor.ExecuteSql(sql);
}

}  // namespace perfbench

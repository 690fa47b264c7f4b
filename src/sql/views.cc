#include "sql/views.h"

#include <cstdint>

#include "sql/executor.h"

namespace dbrepair {
namespace {

std::string SqlLiteral(const Value& v) {
  if (v.is_null()) return "NULL";
  if (v.is_string()) {
    std::string out = "'";
    for (const char c : v.AsString()) {
      if (c == '\'') out += '\'';
      out += c;
    }
    out += "'";
    return out;
  }
  return v.is_int() ? std::to_string(v.AsInt())
                    : std::to_string(v.AsDouble());
}

std::string Alias(uint32_t atom_index) {
  return "t" + std::to_string(atom_index);
}

}  // namespace

Result<std::string> DenialToSql(const Schema& schema,
                                const BoundConstraint& ic) {
  const auto& relations = schema.relations();
  auto column_name = [&](uint32_t atom, uint32_t pos) {
    const RelationSchema& rel =
        relations[ic.atoms[atom].relation_index];
    return Alias(atom) + "." + rel.attribute(pos).name;
  };
  // The SQL site of a variable: its first occurrence.
  auto var_site = [&](int32_t var) {
    const VariableOccurrence& occ = ic.var_occurrences[var].front();
    return column_name(occ.atom, occ.position);
  };

  std::string select;
  std::string from;
  std::vector<std::string> where;

  for (uint32_t a = 0; a < ic.atoms.size(); ++a) {
    const BoundAtom& atom = ic.atoms[a];
    const RelationSchema& rel = relations[atom.relation_index];
    if (a > 0) from += ", ";
    from += rel.name() + " " + Alias(a);
    for (const size_t key_pos : rel.key_positions()) {
      if (!select.empty()) select += ", ";
      select += column_name(a, static_cast<uint32_t>(key_pos));
    }
    // Constant arguments.
    for (uint32_t pos = 0; pos < atom.var_ids.size(); ++pos) {
      if (atom.var_ids[pos] >= 0) continue;
      where.push_back(column_name(a, pos) + " = " +
                      SqlLiteral(atom.constants[pos]));
    }
  }
  // Shared variables: chain every later occurrence to the first.
  for (size_t v = 0; v < ic.var_occurrences.size(); ++v) {
    const auto& occurrences = ic.var_occurrences[v];
    for (size_t k = 1; k < occurrences.size(); ++k) {
      where.push_back(column_name(occurrences[k].atom,
                                  occurrences[k].position) +
                      " = " + var_site(static_cast<int32_t>(v)));
    }
  }
  // Built-ins.
  for (const BoundBuiltin& builtin : ic.builtins) {
    std::string rhs = builtin.rhs_is_var ? var_site(builtin.rhs_var)
                                         : SqlLiteral(builtin.rhs_const);
    where.push_back(var_site(builtin.lhs_var) + " " +
                    CompareOpName(builtin.op) + " " + std::move(rhs));
  }

  std::string sql = "SELECT " + select + " FROM " + from;
  for (size_t i = 0; i < where.size(); ++i) {
    sql += (i == 0 ? " WHERE " : " AND ") + where[i];
  }
  return sql;
}

Result<std::vector<ViolationSet>> FindViolationsViaSql(
    const Database& db, const std::vector<BoundConstraint>& ics) {
  std::vector<ViolationSet> out;
  for (const BoundConstraint& ic : ics) {
    DBREPAIR_ASSIGN_OR_RETURN(const std::string sql,
                              DenialToSql(db.schema(), ic));
    DBREPAIR_ASSIGN_OR_RETURN(const ResultSet result, Query(db, sql));

    // No cap (SIZE_MAX): Append and Compact cannot fail.
    ViolationBuffer buffer(ic.ic_index, ic.atoms.size(), SIZE_MAX);
    std::vector<TupleRef> tuples(ic.atoms.size());
    for (const std::vector<Value>& row : result.rows) {
      // Slice the row into per-atom key tuples and look the tuples up.
      size_t cursor = 0;
      for (size_t a = 0; a < ic.atoms.size(); ++a) {
        const uint32_t relation = ic.atoms[a].relation_index;
        const Table& table = db.table(relation);
        const size_t key_arity = table.schema().key_positions().size();
        std::vector<Value> key(row.begin() + static_cast<long>(cursor),
                               row.begin() +
                                   static_cast<long>(cursor + key_arity));
        cursor += key_arity;
        DBREPAIR_ASSIGN_OR_RETURN(const size_t row_index,
                                  table.LookupByKey(key));
        tuples[a] = TupleRef{relation, static_cast<uint32_t>(row_index)};
      }
      buffer.Append(tuples.data());
    }
    buffer.Compact();
    buffer.AppendMinimal(&out);
  }
  SortViolationSets(&out);
  return out;
}

}  // namespace dbrepair

#include "reference.h"

#include <algorithm>
#include <cstring>
#include <map>
#include <unordered_map>

namespace mqobench {

namespace {

std::string Date(int64_t days) { return "DATE '" + DaysToIso(days) + "'"; }
std::string Str(const std::string& s) { return "'" + s + "'"; }

/// Sum per group key; std::map keeps the groups in one deterministic order
/// (the canonical sort below decides the final order).
template <typename Key>
using GroupSums = std::map<Key, double>;

Rows Canonical(Rows rows) {
  std::sort(rows.begin(), rows.end(),
            [](const std::vector<mqo::Value>& a,
               const std::vector<mqo::Value>& b) {
              return std::lexicographical_compare(a.begin(), a.end(),
                                                  b.begin(), b.end(),
                                                  mqo::ValueLess);
            });
  return rows;
}

mqo::Value Num(double v) { return mqo::Value(v); }
mqo::Value Num(int64_t v) { return mqo::Value(static_cast<double>(v)); }

}  // namespace

const char* TemplateName(Template t) {
  switch (t) {
    case Template::kQ1: return "Q1";
    case Template::kQ3: return "Q3";
    case Template::kQ5: return "Q5";
    case Template::kQ6: return "Q6";
    case Template::kQ7: return "Q7";
    case Template::kQ8: return "Q8";
    case Template::kQ9: return "Q9";
    case Template::kQ10: return "Q10";
    case Template::kDashCustomer: return "dash-customer";
    case Template::kDashOrder: return "dash-order";
    case Template::kDashRevenue: return "dash-revenue";
    case Template::kDashNation: return "dash-nation";
  }
  return "?";
}

std::string ToSql(const QuerySpec& q) {
  switch (q.tmpl) {
    case Template::kQ1:
      return "SELECT l_returnflag, l_linestatus, sum(l_quantity), "
             "sum(l_extendedprice), count(*) FROM lineitem "
             "WHERE l_shipdate <= " + Date(q.d1) +
             " GROUP BY l_returnflag, l_linestatus";
    case Template::kQ3:
      return "SELECT l_orderkey, o_orderdate, o_shippriority, "
             "sum(l_extendedprice) FROM customer, orders, lineitem "
             "WHERE c_custkey = o_custkey AND o_orderkey = l_orderkey "
             "AND c_mktsegment = " + Str(q.s1) +
             " AND o_orderdate < " + Date(q.d1) +
             " AND l_shipdate > " + Date(q.d1) +
             " GROUP BY l_orderkey, o_orderdate, o_shippriority";
    case Template::kQ5:
      return "SELECT n_name, sum(l_extendedprice) FROM customer, orders, "
             "lineitem, supplier, nation, region "
             "WHERE c_custkey = o_custkey AND o_orderkey = l_orderkey "
             "AND l_suppkey = s_suppkey AND c_nationkey = s_nationkey "
             "AND s_nationkey = n_nationkey AND n_regionkey = r_regionkey "
             "AND r_name = " + Str(q.s1) +
             " AND o_orderdate >= " + Date(q.d1) +
             " AND o_orderdate < " + Date(q.d2) + " GROUP BY n_name";
    case Template::kQ6:
    case Template::kDashRevenue:
      return "SELECT sum(l_extendedprice) FROM lineitem "
             "WHERE l_shipdate >= " + Date(q.d1) +
             " AND l_shipdate < " + Date(q.d2) +
             " AND l_quantity < " + std::to_string(q.n);
    case Template::kQ7:
      return "SELECT n1.n_name, n2.n_name, sum(l_extendedprice) "
             "FROM supplier, lineitem, orders, customer, nation n1, "
             "nation n2 WHERE s_suppkey = l_suppkey "
             "AND o_orderkey = l_orderkey AND c_custkey = o_custkey "
             "AND s_nationkey = n1.n_nationkey "
             "AND c_nationkey = n2.n_nationkey "
             "AND n1.n_name = " + Str(q.s1) +
             " AND n2.n_name = " + Str(q.s2) +
             " AND l_shipdate >= " + Date(q.d1) +
             " AND l_shipdate <= " + Date(q.d2) +
             " GROUP BY n1.n_name, n2.n_name";
    case Template::kQ8:
      return "SELECT n2.n_name, sum(l_extendedprice) FROM part, lineitem, "
             "supplier, orders, customer, nation n1, region, nation n2 "
             "WHERE p_partkey = l_partkey AND l_suppkey = s_suppkey "
             "AND l_orderkey = o_orderkey AND o_custkey = c_custkey "
             "AND c_nationkey = n1.n_nationkey "
             "AND n1.n_regionkey = r_regionkey "
             "AND s_nationkey = n2.n_nationkey "
             "AND r_name = " + Str(q.s1) + " AND p_type = " + Str(q.s2) +
             " AND o_orderdate >= " + Date(q.d1) +
             " AND o_orderdate <= " + Date(q.d2) + " GROUP BY n2.n_name";
    case Template::kQ9:
      return "SELECT n_name, sum(l_extendedprice) FROM part, partsupp, "
             "supplier, lineitem, orders, nation "
             "WHERE p_partkey = ps_partkey AND ps_suppkey = s_suppkey "
             "AND ps_partkey = l_partkey AND ps_suppkey = l_suppkey "
             "AND l_orderkey = o_orderkey AND s_nationkey = n_nationkey "
             "AND p_size < " + std::to_string(q.n) + " GROUP BY n_name";
    case Template::kQ10:
      return "SELECT c_custkey, n_name, sum(l_extendedprice) "
             "FROM customer, orders, lineitem, nation "
             "WHERE c_custkey = o_custkey AND o_orderkey = l_orderkey "
             "AND c_nationkey = n_nationkey AND l_returnflag = 'R' "
             "AND o_orderdate >= " + Date(q.d1) +
             " AND o_orderdate < " + Date(q.d2) +
             " GROUP BY c_custkey, n_name";
    case Template::kDashCustomer:
      return "SELECT o_custkey, sum(l_extendedprice) FROM orders, lineitem "
             "WHERE o_orderkey = l_orderkey AND o_orderdate >= " +
             Date(q.d1) + " AND o_orderdate < " + Date(q.d2) +
             " GROUP BY o_custkey";
    case Template::kDashOrder:
      return "SELECT l_orderkey, sum(l_extendedprice) "
             "FROM orders, lineitem, customer "
             "WHERE o_orderkey = l_orderkey AND o_custkey = c_custkey "
             "AND o_orderdate >= " + Date(q.d1) +
             " AND o_orderdate < " + Date(q.d2) + " GROUP BY l_orderkey";
    case Template::kDashNation:
      return "SELECT s_nationkey, sum(l_extendedprice) FROM lineitem, "
             "supplier WHERE l_suppkey = s_suppkey "
             "AND l_shipdate >= " + Date(q.d1) +
             " AND l_shipdate < " + Date(q.d2) + " GROUP BY s_nationkey";
  }
  return "";
}

std::vector<std::string> ResultColumns(Template t) {
  const std::string rev = "sum(lineitem.l_extendedprice)";
  switch (t) {
    case Template::kQ1:
      return {"lineitem.l_returnflag", "lineitem.l_linestatus",
              "sum(lineitem.l_quantity)", rev, "count(*)"};
    case Template::kQ3:
      return {"lineitem.l_orderkey", "orders.o_orderdate",
              "orders.o_shippriority", rev};
    case Template::kQ5:
    case Template::kQ9:
      return {"nation.n_name", rev};
    case Template::kQ6:
    case Template::kDashRevenue:
      return {rev};
    case Template::kQ7:
      return {"n1.n_name", "n2.n_name", rev};
    case Template::kQ8:
      return {"n2.n_name", rev};
    case Template::kQ10:
      return {"customer.c_custkey", "nation.n_name", rev};
    case Template::kDashCustomer:
      return {"orders.o_custkey", rev};
    case Template::kDashOrder:
      return {"lineitem.l_orderkey", rev};
    case Template::kDashNation:
      return {"supplier.s_nationkey", rev};
  }
  return {};
}

bool InReferenceLayout(const mqo::NamedRows& result, Template t, Rows* out) {
  const std::vector<std::string> names = ResultColumns(t);
  if (result.columns.size() != names.size()) return false;
  std::vector<size_t> from;
  for (const std::string& name : names) {
    size_t i = 0;
    while (i < result.columns.size() && result.columns[i].ToString() != name) {
      ++i;
    }
    if (i == result.columns.size()) return false;
    from.push_back(i);
  }
  out->clear();
  out->reserve(result.rows.size());
  for (const auto& row : result.rows) {
    if (row.size() != from.size()) return false;
    std::vector<mqo::Value> r;
    r.reserve(from.size());
    for (size_t i : from) r.push_back(row[i]);
    out->push_back(std::move(r));
  }
  *out = Canonical(std::move(*out));
  return true;
}

Rows ReferenceAnswer(const QuerySpec& q, const TpcdColumns& k) {
  const size_t n_line = k.l_orderkey.size();
  // Dense keys: key -> row. Region and nation keys start at 0.
  auto order = [&](size_t i) {
    return static_cast<size_t>(k.l_orderkey[i] - 1);
  };
  auto cust_of = [&](size_t o) {
    return static_cast<size_t>(k.o_custkey[o] - 1);
  };
  auto supp = [&](size_t i) { return static_cast<size_t>(k.l_suppkey[i] - 1); };
  auto part = [&](size_t i) { return static_cast<size_t>(k.l_partkey[i] - 1); };
  auto region_name = [&](int64_t nation) {
    const int64_t region = k.n_regionkey[static_cast<size_t>(nation)];
    return k.r_name[static_cast<size_t>(region)];
  };
  auto nation_name = [&](int64_t nation) -> const std::string& {
    return k.n_name[static_cast<size_t>(nation)];
  };
  Rows rows;
  switch (q.tmpl) {
    case Template::kQ1: {
      struct Acc { double qty = 0, price = 0, count = 0; };
      std::map<std::pair<std::string, std::string>, Acc> groups;
      for (size_t i = 0; i < n_line; ++i) {
        if (k.l_shipdate[i] > q.d1) continue;
        Acc& a = groups[{k.l_returnflag[i], k.l_linestatus[i]}];
        a.qty += k.l_quantity[i];
        a.price += k.l_extendedprice[i];
        a.count += 1;
      }
      for (const auto& [key, a] : groups) {
        rows.push_back({key.first, key.second, Num(a.qty), Num(a.price),
                        Num(a.count)});
      }
      break;
    }
    case Template::kQ3: {
      GroupSums<int64_t> sums;
      for (size_t i = 0; i < n_line; ++i) {
        const size_t o = order(i);
        if (k.o_orderdate[o] >= q.d1 || k.l_shipdate[i] <= q.d1) continue;
        if (k.c_mktsegment[cust_of(o)] != q.s1) continue;
        sums[k.l_orderkey[i]] += k.l_extendedprice[i];
      }
      for (const auto& [key, sum] : sums) {
        const size_t o = static_cast<size_t>(key - 1);
        rows.push_back({Num(key), Num(k.o_orderdate[o]),
                        Num(k.o_shippriority[o]), Num(sum)});
      }
      break;
    }
    case Template::kQ5: {
      GroupSums<std::string> sums;
      for (size_t i = 0; i < n_line; ++i) {
        const size_t o = order(i);
        if (k.o_orderdate[o] < q.d1 || k.o_orderdate[o] >= q.d2) continue;
        const int64_t s_nation = k.s_nationkey[supp(i)];
        if (k.c_nationkey[cust_of(o)] != s_nation) continue;
        if (region_name(s_nation) != q.s1) continue;
        sums[nation_name(s_nation)] += k.l_extendedprice[i];
      }
      for (const auto& [key, sum] : sums) rows.push_back({key, Num(sum)});
      break;
    }
    case Template::kQ6:
    case Template::kDashRevenue: {
      // A scalar aggregate yields one row even over no input.
      double sum = 0;
      for (size_t i = 0; i < n_line; ++i) {
        if (k.l_shipdate[i] >= q.d1 && k.l_shipdate[i] < q.d2 &&
            k.l_quantity[i] < static_cast<double>(q.n)) {
          sum += k.l_extendedprice[i];
        }
      }
      rows.push_back({Num(sum)});
      break;
    }
    case Template::kQ7: {
      double sum = 0;
      bool any = false;
      for (size_t i = 0; i < n_line; ++i) {
        if (k.l_shipdate[i] < q.d1 || k.l_shipdate[i] > q.d2) continue;
        if (nation_name(k.s_nationkey[supp(i)]) != q.s1) continue;
        if (nation_name(k.c_nationkey[cust_of(order(i))]) != q.s2) continue;
        sum += k.l_extendedprice[i];
        any = true;
      }
      if (any) rows.push_back({q.s1, q.s2, Num(sum)});
      break;
    }
    case Template::kQ8: {
      GroupSums<std::string> sums;
      for (size_t i = 0; i < n_line; ++i) {
        const size_t o = order(i);
        if (k.o_orderdate[o] < q.d1 || k.o_orderdate[o] > q.d2) continue;
        if (k.p_type[part(i)] != q.s2) continue;
        if (region_name(k.c_nationkey[cust_of(o)]) != q.s1) continue;
        sums[nation_name(k.s_nationkey[supp(i)])] += k.l_extendedprice[i];
      }
      for (const auto& [key, sum] : sums) rows.push_back({key, Num(sum)});
      break;
    }
    case Template::kQ9: {
      // Each lineitem joins every partsupp row with its (partkey, suppkey).
      std::unordered_map<uint64_t, int> ps_rows;
      for (size_t j = 0; j < k.ps_partkey.size(); ++j) {
        ++ps_rows[static_cast<uint64_t>(k.ps_partkey[j]) << 32 |
                  static_cast<uint64_t>(k.ps_suppkey[j])];
      }
      GroupSums<std::string> sums;
      for (size_t i = 0; i < n_line; ++i) {
        if (k.p_size[part(i)] >= q.n) continue;
        auto it = ps_rows.find(static_cast<uint64_t>(k.l_partkey[i]) << 32 |
                               static_cast<uint64_t>(k.l_suppkey[i]));
        if (it == ps_rows.end()) continue;
        sums[nation_name(k.s_nationkey[supp(i)])] +=
            k.l_extendedprice[i] * it->second;
      }
      for (const auto& [key, sum] : sums) rows.push_back({key, Num(sum)});
      break;
    }
    case Template::kQ10: {
      GroupSums<int64_t> sums;
      for (size_t i = 0; i < n_line; ++i) {
        const size_t o = order(i);
        if (k.o_orderdate[o] < q.d1 || k.o_orderdate[o] >= q.d2) continue;
        if (k.l_returnflag[i] != "R") continue;
        sums[k.o_custkey[o]] += k.l_extendedprice[i];
      }
      for (const auto& [key, sum] : sums) {
        const int64_t nation = k.c_nationkey[static_cast<size_t>(key - 1)];
        rows.push_back({Num(key), nation_name(nation), Num(sum)});
      }
      break;
    }
    case Template::kDashCustomer:
    case Template::kDashOrder: {
      const bool by_customer = q.tmpl == Template::kDashCustomer;
      GroupSums<int64_t> sums;
      for (size_t i = 0; i < n_line; ++i) {
        const size_t o = order(i);
        if (k.o_orderdate[o] < q.d1 || k.o_orderdate[o] >= q.d2) continue;
        sums[by_customer ? k.o_custkey[o] : k.l_orderkey[i]] +=
            k.l_extendedprice[i];
      }
      for (const auto& [key, sum] : sums) rows.push_back({Num(key), Num(sum)});
      break;
    }
    case Template::kDashNation: {
      GroupSums<int64_t> sums;
      for (size_t i = 0; i < n_line; ++i) {
        if (k.l_shipdate[i] < q.d1 || k.l_shipdate[i] >= q.d2) continue;
        sums[k.s_nationkey[supp(i)]] += k.l_extendedprice[i];
      }
      for (const auto& [key, sum] : sums) rows.push_back({Num(key), Num(sum)});
      break;
    }
  }
  return Canonical(std::move(rows));
}

uint64_t Digest(const Rows& rows) {
  uint64_t h = 0xcbf29ce484222325ull;
  auto mix = [&h](const void* p, size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    for (size_t i = 0; i < n; ++i) {
      h ^= b[i];
      h *= 0x100000001b3ull;
    }
  };
  for (const auto& row : rows) {
    const uint64_t width = row.size();
    mix(&width, sizeof(width));
    for (const auto& v : row) {
      if (v.is_number()) {
        const double d = v.number() == 0.0 ? 0.0 : v.number();  // -0 == 0
        uint64_t bits = 0;
        std::memcpy(&bits, &d, sizeof(bits));
        mix("n", 1);
        mix(&bits, sizeof(bits));
      } else {
        const uint64_t len = v.str().size();
        mix("s", 1);
        mix(&len, sizeof(len));
        mix(v.str().data(), v.str().size());
      }
    }
  }
  return h;
}

}  // namespace mqobench

#include "tpcd_data.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <random>
#include <unordered_set>

#include "storage/column_store.h"

namespace mqobench {

using mqo::ColumnVector;
using mqo::Status;
using mqo::VecType;

namespace {

constexpr int64_t kOrderDateMax = 2405;  // 1998-08-02
constexpr int64_t kCurrentDate = 1263;   // 1995-06-17

class Gen {
 public:
  explicit Gen(uint64_t seed) : rng_(seed) {}
  /// Uniform in [lo, hi].
  int64_t Int(int64_t lo, int64_t hi) {
    return lo + static_cast<int64_t>(rng_() %
                                     static_cast<uint64_t>(hi - lo + 1));
  }
  template <typename T>
  const T& Pick(const std::vector<T>& v) {
    return v[static_cast<size_t>(Int(0, static_cast<int64_t>(v.size()) - 1))];
  }
  /// Two or three words of filler text.
  std::string Text() {
    static const std::vector<std::string> kWords = {
        "furiously", "quickly", "carefully", "blithely", "slyly",  "boldly",
        "final",     "regular", "express",   "pending",  "ironic", "special",
        "deposits",  "packages", "requests", "accounts", "foxes",  "ideas",
        "theodolites", "pinto", "beans",     "asymptotes", "dolphins",
        "instructions", "sleep", "wake",     "haggle",   "nag",    "cajole",
        "detect",    "integrate", "use"};
    std::string s = Pick(kWords);
    const int n = static_cast<int>(Int(1, 2));
    for (int i = 0; i < n; ++i) s += " " + Pick(kWords);
    return s;
  }

 private:
  std::mt19937_64 rng_;
};

std::string Numbered(const char* prefix, int64_t k) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%s#%09lld", prefix,
                static_cast<long long>(k));
  return buf;
}

std::string Phone(Gen* g, int64_t nation) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%02lld-%03lld-%03lld-%04lld",
                static_cast<long long>(nation + 10),
                static_cast<long long>(g->Int(100, 999)),
                static_cast<long long>(g->Int(100, 999)),
                static_cast<long long>(g->Int(1000, 9999)));
  return buf;
}

ColumnVector Ints(std::vector<int64_t> v) {
  ColumnVector c(VecType::kInt64);
  c.ints() = std::move(v);
  return c;
}
ColumnVector Doubles(std::vector<double> v) {
  ColumnVector c(VecType::kDouble);
  c.doubles() = std::move(v);
  return c;
}
ColumnVector Strings(std::vector<std::string> v) {
  ColumnVector c(VecType::kString);
  c.strings() = std::move(v);
  return c;
}

/// Table columns by name, added to the store in catalog order.
using Columns = std::map<std::string, ColumnVector>;

Status AddTable(const mqo::Catalog& catalog, const std::string& name,
                Columns cols, TpcdDatabase* db) {
  MQO_ASSIGN_OR_RETURN(const mqo::Table* table, catalog.GetTable(name));
  mqo::ColumnStore store;
  for (const auto& def : table->columns()) {
    auto it = cols.find(def.name);
    if (it == cols.end()) {
      return Status::Internal("no generator for column " + name + "." +
                              def.name);
    }
    MQO_RETURN_NOT_OK(store.AddColumn(def.name, std::move(it->second)));
  }
  if (store.num_columns() != cols.size()) {
    return Status::Internal("generated columns of " + name +
                            " do not match the catalog");
  }
  store.Compress(/*numeric_compression=*/true);
  db->total_rows += store.num_rows();
  db->data.AddTable(name, std::move(store));
  return Status::OK();
}

Status CheckUnique(const std::string& what, size_t n,
                   const std::unordered_set<uint64_t>& keys) {
  if (keys.size() != n) {
    return Status::Internal("duplicate primary key in " + what);
  }
  return Status::OK();
}

int64_t RowsFor(const mqo::Catalog& catalog, const std::string& table) {
  return static_cast<int64_t>(
      std::llround(catalog.GetTable(table).ValueOrDie()->row_count()));
}

}  // namespace

std::string DaysToIso(int64_t days) {
  // Civil-from-days (Howard Hinnant), offset so 1992-01-01 is day 0.
  int64_t z = days + 8035 + 719468;  // 8035 = days 1970-01-01..1992-01-01
  const int64_t era = (z >= 0 ? z : z - 146096) / 146097;
  const int64_t doe = z - era * 146097;
  const int64_t yoe = (doe - doe / 1460 + doe / 36524 - doe / 146096) / 365;
  int64_t y = yoe + era * 400;
  const int64_t doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
  const int64_t mp = (5 * doy + 2) / 153;
  const int64_t d = doy - (153 * mp + 2) / 5 + 1;
  const int64_t m = mp < 10 ? mp + 3 : mp - 9;
  if (m <= 2) ++y;
  char buf[80];
  std::snprintf(buf, sizeof(buf), "%04lld-%02lld-%02lld",
                static_cast<long long>(y), static_cast<long long>(m),
                static_cast<long long>(d));
  return buf;
}

const std::vector<std::string>& RegionNames() {
  static const std::vector<std::string> kNames = {
      "AFRICA", "AMERICA", "ASIA", "EUROPE", "MIDDLE EAST"};
  return kNames;
}

const std::vector<std::string>& NationNames() {
  static const std::vector<std::string> kNames = {
      "ALGERIA", "ARGENTINA", "BRAZIL",  "CANADA",       "EGYPT",
      "ETHIOPIA", "FRANCE",   "GERMANY", "INDIA",        "INDONESIA",
      "IRAN",    "IRAQ",      "JAPAN",   "JORDAN",       "KENYA",
      "MOROCCO", "MOZAMBIQUE", "PERU",   "CHINA",        "ROMANIA",
      "SAUDI ARABIA", "VIETNAM", "RUSSIA", "UNITED KINGDOM",
      "UNITED STATES"};
  return kNames;
}

namespace {
const std::vector<int64_t>& NationRegions() {
  static const std::vector<int64_t> kRegions = {0, 1, 1, 1, 4, 0, 3, 3, 2,
                                                2, 4, 4, 2, 4, 0, 0, 0, 1,
                                                2, 3, 4, 2, 3, 3, 1};
  return kRegions;
}
}  // namespace

const std::vector<std::string>& MarketSegments() {
  static const std::vector<std::string> kSegments = {
      "AUTOMOBILE", "BUILDING", "FURNITURE", "HOUSEHOLD", "MACHINERY"};
  return kSegments;
}

const std::vector<std::string>& PartTypes() {
  static const std::vector<std::string> kTypes = [] {
    const char* s1[] = {"STANDARD", "SMALL", "MEDIUM", "LARGE", "ECONOMY",
                        "PROMO"};
    const char* s2[] = {"ANODIZED", "BURNISHED", "PLATED", "POLISHED",
                        "BRUSHED"};
    const char* s3[] = {"TIN", "NICKEL", "BRASS", "STEEL", "COPPER"};
    std::vector<std::string> out;
    for (const char* a : s1) {
      for (const char* b : s2) {
        for (const char* c : s3) {
          out.push_back(std::string(a) + " " + b + " " + c);
        }
      }
    }
    return out;
  }();
  return kTypes;
}

mqo::Result<TpcdDatabase> GenerateTpcd(const mqo::Catalog& catalog, double sf,
                                       uint64_t seed) {
  TpcdDatabase db;
  TpcdColumns& k = db.cols;
  Gen g(seed);
  const int64_t n_supp = RowsFor(catalog, "supplier");
  const int64_t n_part = RowsFor(catalog, "part");
  const int64_t n_ps = RowsFor(catalog, "partsupp");
  const int64_t n_cust = RowsFor(catalog, "customer");
  const int64_t n_ord = RowsFor(catalog, "orders");
  const int64_t n_line = RowsFor(catalog, "lineitem");
  if (n_supp < 4 || n_ps != 4 * n_part || n_line < n_ord ||
      n_line > 7 * n_ord) {
    return Status::InvalidArgument("scale factor too small for TPC-D shape");
  }

  {  // region
    std::vector<int64_t> key;
    std::vector<std::string> comment;
    for (int64_t r = 0; r < 5; ++r) {
      key.push_back(r);
      comment.push_back(g.Text());
    }
    k.r_name = RegionNames();
    MQO_RETURN_NOT_OK(AddTable(catalog, "region",
                               {{"r_regionkey", Ints(key)},
                                {"r_name", Strings(k.r_name)},
                                {"r_comment", Strings(comment)}},
                               &db));
  }
  {  // nation
    std::vector<int64_t> key;
    std::vector<std::string> comment;
    for (int64_t n = 0; n < 25; ++n) {
      key.push_back(n);
      comment.push_back(g.Text());
    }
    k.n_name = NationNames();
    k.n_regionkey = NationRegions();
    MQO_RETURN_NOT_OK(AddTable(catalog, "nation",
                               {{"n_nationkey", Ints(key)},
                                {"n_name", Strings(k.n_name)},
                                {"n_regionkey", Ints(k.n_regionkey)},
                                {"n_comment", Strings(comment)}},
                               &db));
  }
  {  // supplier
    std::vector<int64_t> key;
    std::vector<double> acctbal;
    std::vector<std::string> name, address, phone, comment;
    for (int64_t s = 1; s <= n_supp; ++s) {
      key.push_back(s);
      name.push_back(Numbered("Supplier", s));
      address.push_back(g.Text());
      const int64_t nation = g.Int(0, 24);
      k.s_nationkey.push_back(nation);
      phone.push_back(Phone(&g, nation));
      acctbal.push_back(static_cast<double>(g.Int(-999, 9999)));
      comment.push_back(g.Text());
    }
    MQO_RETURN_NOT_OK(AddTable(catalog, "supplier",
                               {{"s_suppkey", Ints(key)},
                                {"s_name", Strings(name)},
                                {"s_address", Strings(address)},
                                {"s_nationkey", Ints(k.s_nationkey)},
                                {"s_phone", Strings(phone)},
                                {"s_acctbal", Doubles(acctbal)},
                                {"s_comment", Strings(comment)}},
                               &db));
  }
  std::vector<double> retail(static_cast<size_t>(n_part) + 1, 0.0);
  {  // part
    static const std::vector<std::string> kContainers = [] {
      std::vector<std::string> out;
      for (const char* a : {"SM", "LG", "MED", "JUMBO", "WRAP"}) {
        for (const char* b : {"CASE", "BOX", "BAG", "JAR", "PKG", "PACK",
                              "CAN", "DRUM"}) {
          out.push_back(std::string(a) + " " + b);
        }
      }
      return out;
    }();
    std::vector<int64_t> key;
    std::vector<double> price;
    std::vector<std::string> name, mfgr, brand, container, comment;
    for (int64_t p = 1; p <= n_part; ++p) {
      key.push_back(p);
      name.push_back(g.Text());
      const int64_t m = g.Int(1, 5);
      mfgr.push_back("Manufacturer#" + std::to_string(m));
      brand.push_back("Brand#" + std::to_string(m) +
                      std::to_string(g.Int(1, 5)));
      k.p_type.push_back(g.Pick(PartTypes()));
      k.p_size.push_back(g.Int(1, 50));
      container.push_back(g.Pick(kContainers));
      // Integer-valued TPC-H-like price in [900, 2100].
      retail[static_cast<size_t>(p)] =
          static_cast<double>(900 + (p / 10) % 201 + p % 1000);
      price.push_back(retail[static_cast<size_t>(p)]);
      comment.push_back(g.Text());
    }
    MQO_RETURN_NOT_OK(AddTable(catalog, "part",
                               {{"p_partkey", Ints(key)},
                                {"p_name", Strings(name)},
                                {"p_mfgr", Strings(mfgr)},
                                {"p_brand", Strings(brand)},
                                {"p_type", Strings(k.p_type)},
                                {"p_size", Ints(k.p_size)},
                                {"p_container", Strings(container)},
                                {"p_retailprice", Doubles(price)},
                                {"p_comment", Strings(comment)}},
                               &db));
  }
  // Part p's i-th supplier (i in 0..3), TPC-H's formula without its
  // (p - 1) / S stride term, which repeats suppliers when S is small. The
  // four offsets i * (S / 4) are distinct modulo S for S >= 4, so
  // (partkey, suppkey) is a key.
  auto supplier_of = [n_supp](int64_t p, int64_t i) {
    return (p + i * (n_supp / 4)) % n_supp + 1;
  };
  {  // partsupp
    std::vector<int64_t> avail;
    std::vector<double> cost;
    std::vector<std::string> comment;
    std::unordered_set<uint64_t> pairs;
    for (int64_t p = 1; p <= n_part; ++p) {
      for (int64_t i = 0; i < 4; ++i) {
        const int64_t s = supplier_of(p, i);
        k.ps_partkey.push_back(p);
        k.ps_suppkey.push_back(s);
        pairs.insert(static_cast<uint64_t>(p) * 1000003ull +
                     static_cast<uint64_t>(s));
        avail.push_back(g.Int(1, 9999));
        cost.push_back(static_cast<double>(g.Int(1, 1000)));
        comment.push_back(g.Text());
      }
    }
    MQO_RETURN_NOT_OK(CheckUnique("partsupp", k.ps_partkey.size(), pairs));
    MQO_RETURN_NOT_OK(AddTable(catalog, "partsupp",
                               {{"ps_partkey", Ints(k.ps_partkey)},
                                {"ps_suppkey", Ints(k.ps_suppkey)},
                                {"ps_availqty", Ints(avail)},
                                {"ps_supplycost", Doubles(cost)},
                                {"ps_comment", Strings(comment)}},
                               &db));
  }
  {  // customer
    std::vector<int64_t> key;
    std::vector<double> acctbal;
    std::vector<std::string> name, address, phone, comment;
    for (int64_t c = 1; c <= n_cust; ++c) {
      key.push_back(c);
      name.push_back(Numbered("Customer", c));
      address.push_back(g.Text());
      const int64_t nation = g.Int(0, 24);
      k.c_nationkey.push_back(nation);
      phone.push_back(Phone(&g, nation));
      acctbal.push_back(static_cast<double>(g.Int(-999, 9999)));
      k.c_mktsegment.push_back(g.Pick(MarketSegments()));
      comment.push_back(g.Text());
    }
    MQO_RETURN_NOT_OK(AddTable(catalog, "customer",
                               {{"c_custkey", Ints(key)},
                                {"c_name", Strings(name)},
                                {"c_address", Strings(address)},
                                {"c_nationkey", Ints(k.c_nationkey)},
                                {"c_phone", Strings(phone)},
                                {"c_acctbal", Doubles(acctbal)},
                                {"c_mktsegment", Strings(k.c_mktsegment)},
                                {"c_comment", Strings(comment)}},
                               &db));
  }
  // Lines per order: uniform 1..7, then nudged so the total is exactly the
  // catalog's lineitem count.
  std::vector<int> lines(static_cast<size_t>(n_ord));
  int64_t total = 0;
  for (auto& n : lines) {
    n = static_cast<int>(g.Int(1, 7));
    total += n;
  }
  while (total != n_line) {
    int& n = lines[static_cast<size_t>(g.Int(0, n_ord - 1))];
    if (total < n_line && n < 7) {
      ++n;
      ++total;
    } else if (total > n_line && n > 1) {
      --n;
      --total;
    }
  }
  {  // orders + lineitem, generated together (lines follow their order)
    static const std::vector<std::string> kPriorities = {
        "1-URGENT", "2-HIGH", "3-MEDIUM", "4-NOT SPECIFIED", "5-LOW"};
    static const std::vector<std::string> kInstruct = {
        "DELIVER IN PERSON", "COLLECT COD", "NONE", "TAKE BACK RETURN"};
    static const std::vector<std::string> kModes = {
        "REG AIR", "AIR", "RAIL", "SHIP", "TRUCK", "MAIL", "FOB"};
    const int64_t n_clerks = std::max<int64_t>(1, std::llround(1000 * sf));
    std::vector<int64_t> okey;
    std::vector<double> total_price;
    std::vector<std::string> status, priority, clerk, ocomment;
    std::vector<int64_t> linenumber, commit, receipt;
    std::vector<double> discount, tax;
    std::vector<std::string> instruct, mode, lcomment;
    for (int64_t o = 1; o <= n_ord; ++o) {
      okey.push_back(o);
      k.o_custkey.push_back(g.Int(1, n_cust));
      const int64_t odate = g.Int(0, kOrderDateMax);
      k.o_orderdate.push_back(odate);
      k.o_shippriority.push_back(0);
      priority.push_back(g.Pick(kPriorities));
      clerk.push_back(Numbered("Clerk", g.Int(1, n_clerks)));
      ocomment.push_back(g.Text());
      double sum = 0.0;
      int shipped = 0;
      const int n = lines[static_cast<size_t>(o - 1)];
      for (int ln = 1; ln <= n; ++ln) {
        const int64_t part = g.Int(1, n_part);
        const double qty = static_cast<double>(g.Int(1, 50));
        const double price = qty * retail[static_cast<size_t>(part)];
        const int64_t ship = odate + g.Int(1, 121);
        const int64_t recv = ship + g.Int(1, 30);
        k.l_orderkey.push_back(o);
        k.l_partkey.push_back(part);
        k.l_suppkey.push_back(supplier_of(part, g.Int(0, 3)));
        linenumber.push_back(ln);
        k.l_quantity.push_back(qty);
        k.l_extendedprice.push_back(price);
        // Percent points, so the column stays integer-valued.
        discount.push_back(static_cast<double>(g.Int(0, 10)));
        tax.push_back(static_cast<double>(g.Int(0, 8)));
        k.l_returnflag.push_back(recv <= kCurrentDate
                                     ? (g.Int(0, 1) == 0 ? "R" : "A")
                                     : "N");
        k.l_linestatus.push_back(ship > kCurrentDate ? "O" : "F");
        shipped += ship > kCurrentDate ? 0 : 1;
        k.l_shipdate.push_back(ship);
        commit.push_back(odate + g.Int(30, 90));
        receipt.push_back(recv);
        instruct.push_back(g.Pick(kInstruct));
        mode.push_back(g.Pick(kModes));
        lcomment.push_back(g.Text());
        sum += price;
      }
      total_price.push_back(sum);
      status.push_back(shipped == n ? "F" : shipped == 0 ? "O" : "P");
    }
    MQO_RETURN_NOT_OK(AddTable(catalog, "orders",
                               {{"o_orderkey", Ints(okey)},
                                {"o_custkey", Ints(k.o_custkey)},
                                {"o_orderstatus", Strings(status)},
                                {"o_totalprice", Doubles(total_price)},
                                {"o_orderdate", Ints(k.o_orderdate)},
                                {"o_orderpriority", Strings(priority)},
                                {"o_clerk", Strings(clerk)},
                                {"o_shippriority", Ints(k.o_shippriority)},
                                {"o_comment", Strings(ocomment)}},
                               &db));
    MQO_RETURN_NOT_OK(AddTable(catalog, "lineitem",
                               {{"l_orderkey", Ints(k.l_orderkey)},
                                {"l_partkey", Ints(k.l_partkey)},
                                {"l_suppkey", Ints(k.l_suppkey)},
                                {"l_linenumber", Ints(linenumber)},
                                {"l_quantity", Doubles(k.l_quantity)},
                                {"l_extendedprice",
                                 Doubles(k.l_extendedprice)},
                                {"l_discount", Doubles(discount)},
                                {"l_tax", Doubles(tax)},
                                {"l_returnflag", Strings(k.l_returnflag)},
                                {"l_linestatus", Strings(k.l_linestatus)},
                                {"l_shipdate", Ints(k.l_shipdate)},
                                {"l_commitdate", Ints(commit)},
                                {"l_receiptdate", Ints(receipt)},
                                {"l_shipinstruct", Strings(instruct)},
                                {"l_shipmode", Strings(mode)},
                                {"l_comment", Strings(lcomment)}},
                               &db));
  }
  return db;
}

}  // namespace mqobench

#include "workload.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <set>
#include <stdexcept>

#include "common/random.h"

namespace e2ebench {

using agoraeo::Rng;
namespace bigearthnet = agoraeo::bigearthnet;
namespace geo = agoraeo::geo;

const char* ClassName(int cls) {
  static const char* const kNames[kNumClasses] = {
      "panel", "similar", "hybrid_rare", "hybrid_common", "page"};
  return kNames[cls];
}

// Sizes and rates.  The monoliths hold 170k images and the cluster
// 42k, so that one boot takes 1.2-2 s on a 4-core host, well clear of
// the 1 s floor below which boot time is mostly noise.  Rates keep the
// system well below saturation (a cold query costs ~18 ms of CPU, a
// cluster query ~30 ms across its nodes).  The cluster's routed stream
// (320 images/s) seals each node about once per window at a threshold
// of 2048.  The hot warm-up is longer so the response cache is warm
// when the window starts.  The panel sweeps take 1.5-4 s.
const std::vector<WorkloadSpec>& Workloads() {
  static const std::vector<WorkloadSpec> kWorkloads = {
      {"explore_hot",
       "demo visitors: Zipf subjects and panel presets, answered mostly by "
       "the response cache, coalescer and resident ranked handles",
       false, 170000, 110.0, 8.0, {0.2, 0.3, 0.15, 0.15, 0.2}, true, 200,
       32, 0.0, 0, 150},
      {"similar_cold",
       "analysts: uniform subjects, raw codes and fresh panels; the working "
       "set dwarfs the caches, so index, docstore and planner do the work",
       false, 170000, 32.0, 3.0, {0.2, 0.3, 0.15, 0.15, 0.2}, false, 0,
       32, 0.0, 0, 300},
      {"cluster_ingest",
       "3 durable nodes behind the coordinator: fan-out queries beside a "
       "stream of routed ingest batches that bump cache epochs and seal",
       true, 42000, 25.0, 3.0, {0.2, 0.3, 0.15, 0.15, 0.2}, false, 0,
       32, 10.0, 2048, 600},
  };
  return kWorkloads;
}

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const WorkloadSpec& w : Workloads()) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

bool Panel::Matches(const Meta& m) const {
  if (rect && (m.min_lat > max_lat || m.max_lat < min_lat ||
               m.min_lon > max_lon || m.max_lon < min_lon)) {
    return false;
  }
  if (dates && (m.date < begin || m.date > end)) return false;
  if (!seasons.empty() &&
      std::find(seasons.begin(), seasons.end(), m.season) == seasons.end()) {
    return false;
  }
  if (op != kNone) {
    uint64_t mask = 0;
    for (int id : labels) mask |= uint64_t{1} << id;
    if (op == kSome && (m.labels & mask) == 0) return false;
    if (op == kAll && (m.labels & mask) != mask) return false;
  }
  return true;
}

namespace {

std::string Num(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.6f", v);
  return buf;
}

std::string DateText(int64_t ordinal) {
  return agoraeo::CivilDate::FromOrdinal(ordinal).ToString();
}

}  // namespace

std::string Panel::Json() const {
  std::string out = "{";
  auto sep = [&out] {
    if (out.size() > 1) out += ",";
  };
  if (rect) {
    sep();
    out += "\"geo\":{\"rect\":{\"min_lat\":" + Num(min_lat) +
           ",\"min_lon\":" + Num(min_lon) + ",\"max_lat\":" + Num(max_lat) +
           ",\"max_lon\":" + Num(max_lon) + "}}";
  }
  if (dates) {
    sep();
    out += "\"date_range\":{\"begin\":\"" + DateText(begin) +
           "\",\"end\":\"" + DateText(end) + "\"}";
  }
  if (!seasons.empty()) {
    sep();
    out += "\"seasons\":[";
    for (size_t i = 0; i < seasons.size(); ++i) {
      if (i > 0) out += ",";
      out += "\"";
      out += agoraeo::SeasonToString(static_cast<agoraeo::Season>(seasons[i]));
      out += "\"";
    }
    out += "]";
  }
  if (op != kNone) {
    sep();
    out += std::string("\"labels\":{\"operator\":\"") +
           (op == kSome ? "some" : "at_least_and_more") + "\",\"names\":[";
    for (size_t i = 0; i < labels.size(); ++i) {
      if (i > 0) out += ",";
      out += "\"";
      out += bigearthnet::LabelById(labels[i]).name;
      out += "\"";
    }
    out += "]}";
  }
  return out + "}";
}

agoraeo::BinaryCode ToBinaryCode(uint64_t code) {
  agoraeo::BinaryCode out(64);
  for (size_t b = 0; b < 64; ++b) out.SetBit(b, (code >> b) & 1);
  return out;
}

std::string QueryBody(const Inputs& in, const Query& q, uint32_t page) {
  std::string out = "{";
  if (q.panel.has_value()) out += "\"panel\":" + q.panel->Json();
  if (q.sim.has_value()) {
    const Similarity& s = *q.sim;
    if (out.size() > 1) out += ",";
    out += "\"similarity\":{";
    if (s.by_name) {
      out += "\"name\":\"" + in.archive.patches[s.subject].name + "\"";
    } else {
      out += "\"code\":\"" + ToBinaryCode(s.code).ToBitString() + "\"";
    }
    out += s.knn ? ",\"k\":" : ",\"radius\":";
    out += std::to_string(s.k_or_radius);
    if (s.limit > 0) out += ",\"limit\":" + std::to_string(s.limit);
    out += "}";
  }
  out += ",\"projection\":\"full\"";
  if (q.page_size > 0) out += ",\"page_size\":" + std::to_string(q.page_size);
  if (page > 0) out += ",\"page\":" + std::to_string(page);
  return out + "}";
}

std::string ScheduleBytes(const std::vector<Request>& schedule) {
  std::string out;
  for (const Request& r : schedule) {
    out += std::to_string(r.due_ns) + " " + ClassName(r.cls) + " " +
           std::to_string(r.page) + " " + std::to_string(r.parent) + " " +
           r.body + "\n";
  }
  return out;
}

namespace {

/// Skew of hot subjects: rank r is drawn with weight (r+1)^-1.4.  An
/// assumption, not a measured popularity.  The Zipfian(1.0) of the
/// repository's cache benches, over 200 images, left the cache cold for
/// most of a run (30-70% of requests over 3 ms at the window's start
/// after a 15 s warm-up), so the workload was not the cache-bound one it
/// is meant to be.
constexpr double kZipfExponent = 1.4;

int LabelId(const char* name) {
  auto id = bigearthnet::LabelIdFromName(name);
  if (!id.ok()) throw std::runtime_error(std::string("unknown label ") + name);
  return *id;
}

double Selectivity(const Inputs& in, const Panel& p, size_t n) {
  size_t hits = 0;
  for (size_t i = 0; i < n; ++i) hits += p.Matches(in.meta[i]) ? 1 : 0;
  return static_cast<double>(hits) / static_cast<double>(n);
}

/// Draws the queries of one workload.  Hot workloads reuse a small set
/// of panel presets and Zipf-distributed popular subjects; cold ones
/// draw every subject and panel fresh.
class QueryMaker {
 public:
  QueryMaker(Inputs* in, Rng* rng) : in_(*in), rng_(*rng) {
    const WorkloadSpec& spec = *in_.spec;
    n_ = spec.archive;
    if (spec.hot) {
      for (size_t i = 0; i < spec.popular; ++i) {
        popular_.push_back(rng_.UniformInt(static_cast<uint32_t>(n_)));
      }
      double total = 0;
      for (size_t r = 0; r < popular_.size(); ++r) {
        total += std::pow(static_cast<double>(r + 1), -kZipfExponent);
        zipf_cdf_.push_back(total);
      }
      for (double& c : zipf_cdf_) c /= total;
      MakePresets();
    }
  }

  Query Make(int action) {
    Query q;
    switch (action) {
      case 0:
        q.cls = kPanel;
        q.panel = in_.spec->hot ? panels_[Pick(panels_.size())] : FreshPanel();
        break;
      case 1:
        q.cls = kSimilar;
        q.sim = Subject();
        break;
      case 2:
      case 3:
        q.cls = action == 2 ? kHybridRare : kHybridCommon;
        q.panel = Filter(action == 2);
        q.sim = Subject();
        q.sim->knn = true;
        q.sim->k_or_radius = 20;
        q.sim->limit = 0;
        break;
      default:  // paged session: page 0 is a similarity query
        q.cls = kSimilar;
        q.sim = Subject();
        q.sim->knn = true;
        q.sim->k_or_radius = 100;
        q.sim->limit = 0;
        q.page_size = 20;
        break;
    }
    return q;
  }

 private:
  size_t Pick(size_t n) { return rng_.UniformInt(static_cast<uint32_t>(n)); }

  size_t SubjectIndex() {
    if (!in_.spec->hot) return Pick(n_);
    const double u = rng_.UniformDouble();
    const size_t r = static_cast<size_t>(
        std::lower_bound(zipf_cdf_.begin(), zipf_cdf_.end(), u) -
        zipf_cdf_.begin());
    return popular_[std::min(r, popular_.size() - 1)];
  }

  Similarity Subject() {
    Similarity s;
    s.subject = SubjectIndex();
    // Cold analysts also search by raw codes (a near-copy of an archive
    // image's code, as an uploaded look-alike would hash).
    if (!in_.spec->hot && rng_.UniformDouble() < 0.3) {
      s.by_name = false;
      s.code = in_.codes[s.subject];
      for (int f = 0; f < 3; ++f) s.code ^= uint64_t{1} << Pick(64);
    }
    if (rng_.UniformDouble() < 0.6) {
      s.knn = true;
      s.k_or_radius = in_.spec->hot ? (rng_.UniformDouble() < 0.5 ? 10 : 20)
                                    : 20;
    } else {
      s.knn = false;
      s.k_or_radius = 6;
      s.limit = 50;
    }
    return s;
  }

  Panel RandomRect(double half_min, double half_max) {
    const Meta& m = in_.meta[Pick(n_)];
    const double lat = (m.min_lat + m.max_lat) / 2;
    const double lon = (m.min_lon + m.max_lon) / 2;
    const double h = rng_.Uniform(half_min, half_max);
    const double w = rng_.Uniform(half_min, half_max);
    Panel p;
    p.rect = true;
    p.min_lat = lat - h;
    p.max_lat = lat + h;
    p.min_lon = lon - w;
    p.max_lon = lon + w;
    return p;
  }

  void RandomDates(Panel* p, int min_days, int max_days) {
    const int64_t first = in_.archive.config.dates.begin.ToOrdinal();
    const int64_t last = in_.archive.config.dates.end.ToOrdinal();
    const int64_t len = rng_.UniformInt(min_days, max_days);
    p->dates = true;
    p->begin = rng_.UniformInt(first, std::max(first, last - len));
    p->end = p->begin + len;
  }

  /// One recipe only, so the class's cost distribution is unimodal and
  /// its median does not jump between recipes from seed to seed.  The
  /// true selectivity lies in 0.1-0.4%: drawn freely, over half of these
  /// rectangles matched no image, and a seed's share of empty panels set
  /// the class's cost.
  Panel FreshPanel() {
    for (int attempt = 0; attempt < 1000; ++attempt) {
      Panel p = RandomRect(0.05, 0.25);
      RandomDates(&p, 30, 90);
      const double sel = Selectivity(in_, p, n_);
      if (sel >= 0.001 && sel <= 0.004) return p;
    }
    throw std::runtime_error("no fresh panel in the selectivity band");
  }

  /// A hybrid filter whose true selectivity is below the planner's 5%
  /// threshold (rare) or well above it (common).
  Panel Filter(bool rare) {
    if (in_.spec->hot) {
      return rare ? rare_[Pick(rare_.size())] : common_[Pick(common_.size())];
    }
    if (!rare) {
      // The two recipes alternate, so any run of these requests holds
      // both in equal shares.
      Panel p;
      if (common_turn_++ % 2 == 0) {
        RandomDates(&p, 150, 250);
      } else {
        const int a = static_cast<int>(Pick(4));
        p.seasons = {a, (a + 1 + static_cast<int>(Pick(3))) % 4};
      }
      return p;
    }
    // A rectangle alone: with a date range added, the conjunction costs
    // 1-5x as much depending on the range, a second cost mode that made
    // the class's median jump between seeds.  Rectangle-and-date filters
    // stay measured by the panel class.
    for (int attempt = 0; attempt < 1000; ++attempt) {
      Panel p = RandomRect(0.3, 0.9);
      const double sel = Selectivity(in_, p, n_);
      if (sel >= 0.01 && sel <= 0.03) return p;
    }
    throw std::runtime_error("no rare hybrid filter in the selectivity band");
  }

  /// Narrows `p` to the shortest date window starting on the archive's
  /// first day in which it matches `target` of the images, so a preset
  /// costs the same whatever scenes the seed happened to generate.
  Panel Calibrate(Panel p, double target) const {
    std::vector<int64_t> dates;
    for (size_t i = 0; i < n_; ++i) {
      if (p.Matches(in_.meta[i])) dates.push_back(in_.meta[i].date);
    }
    const size_t need = static_cast<size_t>(target * static_cast<double>(n_));
    if (need == 0 || dates.size() <= need) return p;
    std::sort(dates.begin(), dates.end());
    p.dates = true;
    p.begin = in_.archive.config.dates.begin.ToOrdinal();
    p.end = dates[need - 1];
    return p;
  }

  /// Presets from the paper's scenarios, calibrated to fixed
  /// selectivities: rare hybrid filters at 1-2% (below the planner's 5%
  /// threshold), common ones at 25-50%, panels at 0.4-2%.
  void MakePresets() {
    const geo::BoundingBox pt =
        (*bigearthnet::CountryByName("Portugal"))->extent;
    Panel industrial_water;
    industrial_water.op = Panel::kAll;
    industrial_water.labels = {LabelId("Industrial or commercial units"),
                               LabelId("Water bodies")};
    Panel sw_portugal;
    sw_portugal.rect = true;
    sw_portugal.min_lat = pt.min.lat;
    sw_portugal.max_lat = pt.min.lat + 0.4 * (pt.max.lat - pt.min.lat);
    sw_portugal.min_lon = pt.min.lon;
    sw_portugal.max_lon = pt.min.lon + 0.5 * (pt.max.lon - pt.min.lon);
    Panel coniferous;
    coniferous.op = Panel::kSome;
    coniferous.labels = {LabelId("Coniferous forest")};
    Panel winter_water;
    winter_water.seasons = {static_cast<int>(agoraeo::Season::kWinter)};
    winter_water.op = Panel::kSome;
    winter_water.labels = {LabelId("Water bodies"), LabelId("Water courses")};
    Panel beaches;
    beaches.op = Panel::kSome;
    beaches.labels = {LabelId("Beaches, dunes, sands")};
    panels_ = {Calibrate(industrial_water, 0.01), Calibrate(sw_portugal, 0.01),
               Calibrate(coniferous, 0.01), Calibrate(winter_water, 0.02),
               Calibrate(beaches, 0.004)};
    rare_ = {Calibrate(industrial_water, 0.02), Calibrate(sw_portugal, 0.012)};
    Panel summer_autumn;
    summer_autumn.seasons = {static_cast<int>(agoraeo::Season::kSummer),
                             static_cast<int>(agoraeo::Season::kAutumn)};
    Panel forest;
    forest.op = Panel::kSome;
    forest.labels = {LabelId("Coniferous forest"),
                     LabelId("Broad-leaved forest"), LabelId("Mixed forest")};
    common_ = {summer_autumn, forest};
  }

  Inputs& in_;
  Rng& rng_;
  size_t n_ = 0;
  std::vector<size_t> popular_;
  std::vector<double> zipf_cdf_;
  std::vector<Panel> panels_, rare_, common_;
  size_t common_turn_ = 0;
};

/// An open-loop Poisson schedule of user actions over [0, seconds).
/// Paged sessions add their two follow-up pages after a think time.
/// Actions are dealt from shuffled decks of 20 that hold the mix
/// exactly, so every window has the same share of each action: drawn
/// one by one, the share of panels (the costliest action on the hot
/// workload) varied by ~4% between seeds and moved the CPU per query
/// with it.
std::vector<Request> MakeSchedule(Inputs* in, QueryMaker* maker, Rng* rng,
                                  double seconds) {
  constexpr int kDeck = 20;
  const WorkloadSpec& spec = *in->spec;
  std::vector<Request> out;
  std::vector<int> deck;
  double t = 0;
  for (;;) {
    t += -std::log(1.0 - rng->UniformDouble()) / spec.actions_per_s;
    if (t >= seconds) break;
    if (deck.empty()) {
      for (int a = 0; a < 5; ++a) {
        const int n = static_cast<int>(std::lround(spec.mix[a] * kDeck));
        deck.insert(deck.end(), n, a);
      }
      rng->Shuffle(&deck);
    }
    const int action = deck.back();
    deck.pop_back();
    const uint32_t qi = static_cast<uint32_t>(in->queries.size());
    in->queries.push_back(maker->Make(action));
    Request r;
    r.due_ns = static_cast<uint64_t>(t * 1e9);
    r.cls = in->queries.back().cls;
    r.query = qi;
    r.body = QueryBody(*in, in->queries.back(), 0);
    r.has_followup = action == 4;
    out.push_back(r);
    if (action == 4) {
      double ft = t;
      for (uint32_t page = 1; page <= 2; ++page) {
        ft += 0.2 + rng->Uniform(0.0, 0.4);  // think time
        Request f;
        f.due_ns = static_cast<uint64_t>(ft * 1e9);
        f.cls = kPage;
        f.query = qi;
        f.page = page;
        f.has_followup = page < 2;
        f.body = QueryBody(*in, in->queries.back(), page);
        out.push_back(f);
      }
    }
  }
  // Follow-ups interleave with later actions; order by due time (stable,
  // so equal due times keep generation order) and then link each
  // follow-up to its previous page.
  std::stable_sort(out.begin(), out.end(), [](const Request& a,
                                              const Request& b) {
    return a.due_ns < b.due_ns;
  });
  std::vector<int32_t> last(in->queries.size(), -1);
  for (size_t i = 0; i < out.size(); ++i) {
    if (out[i].cls == kPage || out[i].has_followup) {
      if (out[i].page > 0) out[i].parent = last[out[i].query];
      last[out[i].query] = static_cast<int32_t>(i);
    }
  }
  return out;
}

}  // namespace

Inputs MakeInputs(const WorkloadSpec& spec, uint64_t seed, double seconds) {
  Inputs in;
  in.spec = &spec;
  // Images held back for the routed stream, with 10 s to spare.
  const size_t streamed =
      spec.cluster ? static_cast<size_t>((spec.warmup_s + seconds + 10.0) *
                                         spec.ingest_batches_per_s)
                   : 0;
  const size_t stream = streamed * spec.ingest_batch;
  bigearthnet::ArchiveConfig config;
  config.num_patches = spec.archive + stream;
  config.seed = seed;
  auto archive = bigearthnet::ArchiveGenerator(config).Generate();
  if (!archive.ok()) throw std::runtime_error("archive generation failed");
  in.archive = *std::move(archive);

  // Clustered codes approximating a trained hashing model: one random
  // centre per scene, ~8% of bits flipped per image.
  Rng rng(seed, 11);
  std::vector<uint64_t> centres(in.archive.scene_centers.size());
  for (uint64_t& c : centres) c = rng.NextUint64();
  in.codes.reserve(in.archive.patches.size());
  in.meta.reserve(in.archive.patches.size());
  for (const bigearthnet::PatchMetadata& p : in.archive.patches) {
    uint64_t code = centres[static_cast<size_t>(p.scene_id)];
    for (int b = 0; b < 64; ++b) {
      if (rng.UniformDouble() < 0.08) code ^= uint64_t{1} << b;
    }
    in.codes.push_back(code);
    Meta m{p.bounds.min.lat, p.bounds.min.lon, p.bounds.max.lat,
           p.bounds.max.lon, p.acquisition_date.ToOrdinal(),
           static_cast<int>(p.season), 0};
    for (int id : p.labels.ids()) m.labels |= uint64_t{1} << id;
    in.meta.push_back(m);
  }

  Rng qrng(seed, 23);
  QueryMaker maker(&in, &qrng);
  in.warmup = MakeSchedule(&in, &maker, &qrng, spec.warmup_s);
  in.window = MakeSchedule(&in, &maker, &qrng, seconds);
  // Verification sample: 8 queries per action, paged sessions checked
  // over three pages.  Probes: 24 fresh queries per action.
  for (int action = 0; action < 5; ++action) {
    for (int i = 0; i < 8; ++i) {
      in.verify.push_back(static_cast<uint32_t>(in.queries.size()));
      in.queries.push_back(maker.Make(action));
    }
  }
  for (int action = 0; action < 5; ++action) {
    for (int i = 0; i < 24; ++i) {
      in.probe.push_back(static_cast<uint32_t>(in.queries.size()));
      in.queries.push_back(maker.Make(action));
    }
  }
  // Panel sweep.  Hot: the window's distinct presets again, cycled in
  // the order they first came, so every round of the sweep holds each
  // preset equally often.  Cold: fresh panels.
  std::vector<uint32_t> presets;
  std::set<std::string> bodies;
  if (spec.hot) {
    for (const Request& r : in.window) {
      if (r.cls == kPanel && bodies.insert(r.body).second) {
        presets.push_back(r.query);
      }
    }
  }
  for (size_t i = 0; i < spec.panel_sweep; ++i) {
    if (!presets.empty()) {
      in.panel_sweep.push_back(presets[i % presets.size()]);
      continue;
    }
    in.panel_sweep.push_back(static_cast<uint32_t>(in.queries.size()));
    in.queries.push_back(maker.Make(kPanel));
  }
  double t = 0;
  size_t b = spec.archive;
  for (size_t i = 0; i < streamed; ++i, b += spec.ingest_batch) {
    t += -std::log(1.0 - qrng.UniformDouble()) / spec.ingest_batches_per_s;
    in.stream.push_back(
        {static_cast<uint64_t>(t * 1e9), b, b + spec.ingest_batch});
  }
  return in;
}

}  // namespace e2ebench

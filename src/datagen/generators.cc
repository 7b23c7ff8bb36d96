#include "datagen/generators.h"

#include <algorithm>
#include <cmath>

#include "common/strings.h"
#include "datagen/vocab_data.h"

namespace serd::datagen {
namespace {

// Fraction of each word pool reserved for the "active" domain; the rest
// feeds only the background corpora.
constexpr double kActiveFraction = 0.6;

/// Draws one element of `pool`'s active (or background) share.
std::string_view Draw(const std::vector<std::string_view>& pool,
                      bool background, Rng* rng) {
  size_t split = static_cast<size_t>(pool.size() * kActiveFraction);
  if (background) {
    return pool[split + rng->UniformInt(pool.size() - split)];
  }
  return pool[rng->UniformInt(split)];
}

std::string Cap(std::string s) {
  if (!s.empty() && s[0] >= 'a' && s[0] <= 'z') {
    s[0] = static_cast<char>(s[0] - 'a' + 'A');
  }
  return s;
}

// ---------------------------------------------------------------------
// Scholarly world (DBLP-ACM analog).

struct Paper {
  std::string title;
  std::vector<std::string> authors;  // "First Last"
  size_t venue_pair;                 // index into VenuePairs()/2
  int year;
};

/// A non-matching "sibling": shares topic words / venue with `base` the
/// way different papers from one group do. These near-boundary negatives
/// are what make real ER benchmarks hard (different editions, follow-up
/// papers) — without them every matcher gets F1 ~ 1 and the distribution
/// comparisons of Exp-2/Exp-3 cannot discriminate.
Paper MakeSiblingPaper(const Paper& base, bool background, Rng* rng);

Paper MakePaper(bool background, Rng* rng) {
  Paper p;
  switch (rng->UniformInt(3u)) {
    case 0:
      p.title = Cap(std::string(Draw(TitleAdjectives(), background, rng))) +
                " " + std::string(Draw(TitleNouns(), background, rng)) +
                " for " + std::string(Draw(TitleTopics(), background, rng));
      break;
    case 1:
      p.title = Cap(std::string(Draw(TitleTopics(), background, rng))) +
                " with " +
                std::string(Draw(TitleAdjectives(), background, rng)) + " " +
                std::string(Draw(TitleNouns(), background, rng));
      break;
    default:
      p.title = "A " + std::string(Draw(TitleAdjectives(), background, rng)) +
                " approach to " +
                std::string(Draw(TitleTopics(), background, rng));
  }
  int n_authors = 1 + static_cast<int>(rng->UniformInt(3u));
  for (int i = 0; i < n_authors; ++i) {
    p.authors.push_back(std::string(Draw(FirstNames(), background, rng)) +
                        " " +
                        std::string(Draw(LastNames(), background, rng)));
  }
  p.venue_pair = rng->UniformInt(VenuePairs().size() / 2);
  p.year = 1995 + static_cast<int>(rng->UniformInt(16u));  // 1995..2010
  return p;
}

Paper MakeSiblingPaper(const Paper& base, bool background, Rng* rng) {
  Paper p = base;
  // Same research line: swap one content word of the title.
  auto words = SplitWhitespace(p.title);
  if (!words.empty()) {
    size_t i = rng->UniformInt(words.size());
    words[i] = std::string(Draw(TitleNouns(), background, rng));
    p.title = Join(words, " ");
  }
  // Overlapping author set: drop/replace one author.
  if (p.authors.size() > 1 && rng->Bernoulli(0.6)) {
    p.authors.erase(p.authors.begin() +
                    rng->UniformInt(p.authors.size()));
  } else {
    p.authors.push_back(std::string(Draw(FirstNames(), background, rng)) +
                        " " +
                        std::string(Draw(LastNames(), background, rng)));
  }
  p.year = base.year + static_cast<int>(rng->UniformInt(3u)) - 1;
  return p;
}

std::string RenderAuthors(const std::vector<std::string>& authors) {
  return Join(authors, ", ");
}

/// B-side author style: occasionally reorders and abbreviates first names
/// ("Christian Jensen" -> "C. Jensen"), like ACM vs DBLP listings.
std::string VaryAuthors(std::vector<std::string> authors, Rng* rng) {
  if (authors.size() > 1 && rng->Bernoulli(0.6)) {
    rng->Shuffle(&authors);
  }
  // One source occasionally drops a trailing author ("et al." listings).
  if (authors.size() > 2 && rng->Bernoulli(0.2)) authors.pop_back();
  for (auto& a : authors) {
    if (rng->Bernoulli(0.35)) {
      auto words = SplitWhitespace(a);
      if (words.size() >= 2 && words[0].size() > 1) {
        a = std::string(1, words[0][0]) + ". " + words.back();
      }
    }
  }
  return RenderAuthors(authors);
}

std::string VaryTitle(const std::string& title, Rng* rng) {
  std::string out = title;
  if (rng->Bernoulli(0.5)) out = ToLower(out);  // case style differences
  if (rng->Bernoulli(0.18) && out.size() > 4) {  // typo
    size_t i = 1 + rng->UniformInt(out.size() - 2);
    out.erase(out.begin() + i);
  }
  if (rng->Bernoulli(0.15)) {  // subtitle truncation
    auto words = SplitWhitespace(out);
    if (words.size() > 3) {
      words.pop_back();
      out = Join(words, " ");
    }
  }
  return out;
}

// ---------------------------------------------------------------------
// Restaurants.

struct RestaurantRec {
  std::string name;
  std::string address;
  std::string city;
  std::string flavor;
};

RestaurantRec MakeRestaurant(bool background, Rng* rng) {
  RestaurantRec r;
  r.name = std::string(Draw(RestaurantNameWords(), background, rng)) + " " +
           std::string(Draw(RestaurantNameWords(), background, rng));
  if (rng->Bernoulli(0.5)) r.name += " Restaurant";
  r.address = std::to_string(1 + rng->UniformInt(999u)) + " " +
              std::string(Draw(StreetNames(), background, rng));
  r.city = std::string(Draw(Cities(), background, rng));
  r.flavor = std::string(Draw(Cuisines(), background, rng));
  return r;
}

/// Sibling restaurant: another location of the same chain (same name,
/// different address/city).
RestaurantRec MakeSiblingRestaurant(const RestaurantRec& base,
                                    bool background, Rng* rng) {
  RestaurantRec r = base;
  r.address = std::to_string(1 + rng->UniformInt(999u)) + " " +
              std::string(Draw(StreetNames(), background, rng));
  r.city = std::string(Draw(Cities(), background, rng));
  return r;
}

RestaurantRec VaryRestaurant(const RestaurantRec& r, Rng* rng) {
  RestaurantRec v = r;
  if (rng->Bernoulli(0.4)) {
    // "De's Forest Family Restaurant"-style prefix/suffix noise.
    v.name = (rng->Bernoulli(0.5) ? "The " : "") + r.name;
  }
  if (rng->Bernoulli(0.35)) {
    auto words = SplitWhitespace(v.address);
    if (words.size() > 2) {
      v.address = words[0] + " " + words[1] + " near " +
                  std::string(Draw(StreetNames(), false, rng));
    }
  }
  if (rng->Bernoulli(0.2) && v.name.size() > 4) {
    size_t i = 1 + rng->UniformInt(v.name.size() - 2);
    v.name.erase(v.name.begin() + i);
  }
  return v;
}

// ---------------------------------------------------------------------
// Electronics products (Walmart-Amazon analog).

struct ProductRec {
  std::string modelno;
  std::string title;
  std::string descr;
  std::string brand;
  double price;
};

ProductRec MakeProduct(bool background, Rng* rng) {
  ProductRec p;
  p.brand = std::string(Draw(Brands(), background, rng));
  std::string noun(Draw(ProductNouns(), background, rng));
  std::string qual(Draw(ProductQualifiers(), background, rng));
  p.modelno = std::string(1, static_cast<char>('A' + rng->UniformInt(26u))) +
              std::string(1, static_cast<char>('A' + rng->UniformInt(26u))) +
              std::to_string(100 + rng->UniformInt(900u));
  p.title = p.brand + " " + Cap(qual) + " " + Cap(noun) + " " + p.modelno;
  p.descr = Cap(qual) + " " + noun + " by " + p.brand + " with " +
            std::string(Draw(ProductQualifiers(), background, rng)) +
            " design";
  p.price = 20.0 + static_cast<double>(rng->UniformInt(980u)) +
            0.99 * rng->Bernoulli(0.5);
  return p;
}

/// Sibling product: same brand and product family, different model — the
/// classic hard negative of catalog matching.
ProductRec MakeSiblingProduct(const ProductRec& base, bool background,
                              Rng* rng) {
  ProductRec p = base;
  p.modelno = std::string(1, static_cast<char>('A' + rng->UniformInt(26u))) +
              std::string(1, static_cast<char>('A' + rng->UniformInt(26u))) +
              std::to_string(100 + rng->UniformInt(900u));
  std::string qual(Draw(ProductQualifiers(), background, rng));
  auto words = SplitWhitespace(base.title);
  p.title = p.brand + " " + Cap(qual);
  for (size_t i = 2; i + 1 < words.size(); ++i) p.title += " " + words[i];
  p.title += " " + p.modelno;
  p.price = base.price * rng->Uniform(0.8, 1.25);
  return p;
}

ProductRec VaryProduct(const ProductRec& p, Rng* rng) {
  ProductRec v = p;
  // Marketplace model-number formatting ("AB123" vs "AB-123").
  if (rng->Bernoulli(0.4) && v.modelno.size() > 2) {
    v.modelno.insert(v.modelno.begin() + 2, '-');
  }
  if (rng->Bernoulli(0.5)) v.title = ToLower(v.title);
  if (rng->Bernoulli(0.4)) {
    v.descr = p.brand + " " + p.modelno + " - " + v.descr;
  }
  if (rng->Bernoulli(0.1)) v.descr.clear();  // missing description
  if (rng->Bernoulli(0.7)) {
    v.price = p.price * rng->Uniform(0.95, 1.05);  // retailer price jitter
  }
  return v;
}

// ---------------------------------------------------------------------
// Music (iTunes-Amazon analog).

struct TrackRec {
  std::string song_name;
  std::string artist_name;
  std::string album_name;
  std::string genre;
  std::string copyright;
  double price;
  std::string time;      // rendered as a date per the paper's typing
  std::string released;
};

std::string MakeDate(Rng* rng, int year_lo, int year_hi) {
  int y = year_lo + static_cast<int>(
                        rng->UniformInt(static_cast<uint64_t>(year_hi - year_lo + 1)));
  int m = 1 + static_cast<int>(rng->UniformInt(12u));
  int d = 1 + static_cast<int>(rng->UniformInt(28u));
  return StrFormat("%04d-%02d-%02d", y, m, d);
}

TrackRec MakeTrack(bool background, Rng* rng) {
  TrackRec t;
  t.song_name = "I'll " + std::string(Draw(SongWords(), background, rng)) +
                " " + std::string(Draw(SongWords(), background, rng));
  switch (rng->UniformInt(3u)) {
    case 0:
      t.song_name = std::string(Draw(SongWords(), background, rng)) + " " +
                    std::string(Draw(SongWords(), background, rng));
      break;
    case 1:
      t.song_name = std::string(Draw(SongWords(), background, rng)) +
                    " in the " +
                    std::string(Draw(SongWords(), background, rng));
      break;
    default:
      break;
  }
  t.artist_name = std::string(Draw(ArtistWords(), background, rng)) + " " +
                  std::string(Draw(ArtistWords(), background, rng));
  t.album_name = std::string(Draw(SongWords(), background, rng)) + " " +
                 std::string(Draw(SongWords(), background, rng));
  t.genre = std::string(Draw(Genres(), background, rng));
  t.copyright = "(C) " + std::string(Draw(Labels(), background, rng));
  t.price = 0.69 + 0.30 * static_cast<double>(rng->UniformInt(3u));
  t.time = MakeDate(rng, 2000, 2002);  // pseudo "time" attribute
  t.released = MakeDate(rng, 2005, 2015);
  return t;
}

/// Sibling track: another song from the same album/artist.
TrackRec MakeSiblingTrack(const TrackRec& base, bool background, Rng* rng) {
  TrackRec t = base;
  t.song_name = std::string(Draw(SongWords(), background, rng)) + " " +
                std::string(Draw(SongWords(), background, rng));
  if (rng->Bernoulli(0.3)) {
    t.song_name += " " + std::string(Draw(SongWords(), background, rng));
  }
  t.price = base.price;
  return t;
}

TrackRec VaryTrack(const TrackRec& t, Rng* rng) {
  TrackRec v = t;
  if (rng->Bernoulli(0.4)) v.song_name += " (Album Version)";
  if (rng->Bernoulli(0.3)) v.album_name += " [Deluxe Edition]";
  if (rng->Bernoulli(0.4)) v.copyright = ToLower(v.copyright);
  if (rng->Bernoulli(0.5)) {
    v.price = t.price + (rng->Bernoulli(0.5) ? 0.3 : -0.3);
    if (v.price < 0.69) v.price = 0.69;
  }
  return v;
}

// ---------------------------------------------------------------------
// Assembly helpers.

size_t Scaled(size_t paper_value, double scale, size_t min_value) {
  // Generate() checked that scale is positive and finite; the cap keeps
  // the conversion defined for any such scale.
  const double scaled =
      std::min(static_cast<double>(paper_value) * scale, 1e18);
  return std::max<size_t>(min_value, static_cast<size_t>(scaled));
}

}  // namespace

const char* DatasetKindName(DatasetKind kind) {
  switch (kind) {
    case DatasetKind::kDblpAcm:
      return "DBLP-ACM";
    case DatasetKind::kRestaurant:
      return "Restaurant";
    case DatasetKind::kWalmartAmazon:
      return "Walmart-Amazon";
    case DatasetKind::kItunesAmazon:
      return "iTunes-Amazon";
  }
  return "?";
}

bool ParseDatasetKind(const std::string& name, DatasetKind* kind) {
  if (name == "dblp-acm") {
    *kind = DatasetKind::kDblpAcm;
  } else if (name == "restaurant") {
    *kind = DatasetKind::kRestaurant;
  } else if (name == "walmart-amazon") {
    *kind = DatasetKind::kWalmartAmazon;
  } else if (name == "itunes-amazon") {
    *kind = DatasetKind::kItunesAmazon;
  } else {
    return false;
  }
  return true;
}

PaperStats PaperSizes(DatasetKind kind) {
  switch (kind) {
    case DatasetKind::kDblpAcm:
      return {2616, 2294, 2224, 4};
    case DatasetKind::kRestaurant:
      return {864, 864, 112, 4};
    case DatasetKind::kWalmartAmazon:
      return {2554, 22074, 1154, 5};
    case DatasetKind::kItunesAmazon:
      return {6907, 55922, 132, 8};
  }
  return {0, 0, 0, 0};
}

namespace {

Schema DblpAcmSchema() {
  return Schema({{"title", ColumnType::kText},
                 {"authors", ColumnType::kText},
                 {"venue", ColumnType::kCategorical},
                 {"year", ColumnType::kNumeric}});
}
Schema RestaurantSchema() {
  return Schema({{"name", ColumnType::kText},
                 {"address", ColumnType::kText},
                 {"city", ColumnType::kCategorical},
                 {"flavor", ColumnType::kCategorical}});
}
Schema WalmartAmazonSchema() {
  return Schema({{"modelno", ColumnType::kText},
                 {"title", ColumnType::kText},
                 {"descr", ColumnType::kText},
                 {"brand", ColumnType::kCategorical},
                 {"price", ColumnType::kNumeric}});
}
Schema ItunesAmazonSchema() {
  return Schema({{"song_name", ColumnType::kText},
                 {"artist_name", ColumnType::kText},
                 {"album_name", ColumnType::kText},
                 {"genre", ColumnType::kCategorical},
                 {"copyright", ColumnType::kText},
                 {"price", ColumnType::kNumeric},
                 {"time", ColumnType::kDate},
                 {"released", ColumnType::kDate}});
}

ERDataset GenerateDblpAcm(const GenOptions& options) {
  PaperStats sizes = PaperSizes(DatasetKind::kDblpAcm);
  size_t na = Scaled(sizes.a_size, options.scale, 40);
  size_t nb = Scaled(sizes.b_size, options.scale, 40);
  size_t nm = std::min({Scaled(sizes.matches, options.scale, 20), na, nb});

  Rng rng(options.seed);
  ERDataset ds;
  ds.name = DatasetKindName(DatasetKind::kDblpAcm);
  ds.a = Table(DblpAcmSchema());
  ds.b = Table(DblpAcmSchema());

  const auto& venues = VenuePairs();
  auto render_a = [&](const Paper& p, size_t id) {
    Entity e;
    e.id = "a" + std::to_string(id);
    // DBLP style: abbreviated venue.
    e.values = {p.title, RenderAuthors(p.authors),
                std::string(venues[p.venue_pair * 2 + 1]),
                std::to_string(p.year)};
    return e;
  };
  auto render_b = [&](const Paper& p, size_t id, Rng* r) {
    Entity e;
    e.id = "b" + std::to_string(id);
    // ACM style: full venue name, varied title/author rendering.
    e.values = {VaryTitle(p.title, r), VaryAuthors(p.authors, r),
                std::string(venues[p.venue_pair * 2]),
                std::to_string(p.year)};
    return e;
  };

  std::vector<Paper> worlds;
  worlds.reserve(nm);
  for (size_t i = 0; i < nm; ++i) {
    Paper p = MakePaper(false, &rng);
    worlds.push_back(p);
    ds.a.Append(render_a(p, i));
    ds.b.Append(render_b(p, i, &rng));
    ds.matches.push_back({i, i});
  }
  // ~35% of unmatched entities are hard-negative siblings of matched
  // papers; the rest are fresh.
  auto next_paper = [&]() {
    if (!worlds.empty() && rng.Bernoulli(0.35)) {
      return MakeSiblingPaper(worlds[rng.UniformInt(worlds.size())], false,
                              &rng);
    }
    return MakePaper(false, &rng);
  };
  for (size_t i = nm; i < na; ++i) {
    ds.a.Append(render_a(next_paper(), i));
  }
  for (size_t i = nm; i < nb; ++i) {
    ds.b.Append(render_b(next_paper(), i, &rng));
  }
  return ds;
}

ERDataset GenerateRestaurant(const GenOptions& options) {
  PaperStats sizes = PaperSizes(DatasetKind::kRestaurant);
  size_t n = Scaled(sizes.a_size, options.scale, 60);
  size_t nm = std::min(Scaled(sizes.matches, options.scale, 8), n / 4);

  Rng rng(options.seed + 1);
  ERDataset ds;
  ds.name = DatasetKindName(DatasetKind::kRestaurant);
  ds.self_join = true;
  Table t(RestaurantSchema());

  size_t id = 0;
  auto append = [&](const RestaurantRec& r) {
    Entity e;
    e.id = "r" + std::to_string(id++);
    e.values = {r.name, r.address, r.city, r.flavor};
    t.Append(std::move(e));
  };

  // nm duplicate clusters of size 2, then singletons (some of which are
  // hard-negative chain siblings of the duplicated restaurants).
  std::vector<RestaurantRec> worlds;
  for (size_t i = 0; i < nm; ++i) {
    RestaurantRec r = MakeRestaurant(false, &rng);
    worlds.push_back(r);
    append(r);
    append(VaryRestaurant(r, &rng));
    ds.matches.push_back({2 * i, 2 * i + 1});
  }
  while (t.size() < n) {
    if (!worlds.empty() && rng.Bernoulli(0.3)) {
      append(MakeSiblingRestaurant(worlds[rng.UniformInt(worlds.size())],
                                   false, &rng));
    } else {
      append(MakeRestaurant(false, &rng));
    }
  }
  ds.a = t;
  ds.b = std::move(t);
  return ds;
}

ERDataset GenerateWalmartAmazon(const GenOptions& options) {
  PaperStats sizes = PaperSizes(DatasetKind::kWalmartAmazon);
  size_t na = Scaled(sizes.a_size, options.scale, 40);
  size_t nb = Scaled(sizes.b_size, options.scale, 80);
  size_t nm = std::min({Scaled(sizes.matches, options.scale, 30), na, nb});

  Rng rng(options.seed + 2);
  ERDataset ds;
  ds.name = DatasetKindName(DatasetKind::kWalmartAmazon);
  ds.a = Table(WalmartAmazonSchema());
  ds.b = Table(WalmartAmazonSchema());

  auto render = [&](const ProductRec& p, const std::string& prefix,
                    size_t id) {
    Entity e;
    e.id = prefix + std::to_string(id);
    e.values = {p.modelno, p.title, p.descr, p.brand,
                StrFormat("%.2f", p.price)};
    return e;
  };

  std::vector<ProductRec> worlds;
  for (size_t i = 0; i < nm; ++i) {
    ProductRec p = MakeProduct(false, &rng);
    worlds.push_back(p);
    ds.a.Append(render(p, "w", i));
    ds.b.Append(render(VaryProduct(p, &rng), "z", i));
    ds.matches.push_back({i, i});
  }
  auto next_product = [&]() {
    if (!worlds.empty() && rng.Bernoulli(0.35)) {
      return MakeSiblingProduct(worlds[rng.UniformInt(worlds.size())], false,
                                &rng);
    }
    return MakeProduct(false, &rng);
  };
  for (size_t i = nm; i < na; ++i) {
    ds.a.Append(render(next_product(), "w", i));
  }
  for (size_t i = nm; i < nb; ++i) {
    ds.b.Append(render(VaryProduct(next_product(), &rng), "z", i));
  }
  return ds;
}

ERDataset GenerateItunesAmazon(const GenOptions& options) {
  PaperStats sizes = PaperSizes(DatasetKind::kItunesAmazon);
  size_t na = Scaled(sizes.a_size, options.scale, 40);
  size_t nb = Scaled(sizes.b_size, options.scale, 80);
  size_t nm = std::min({Scaled(sizes.matches, options.scale, 24), na, nb});

  Rng rng(options.seed + 3);
  ERDataset ds;
  ds.name = DatasetKindName(DatasetKind::kItunesAmazon);
  ds.a = Table(ItunesAmazonSchema());
  ds.b = Table(ItunesAmazonSchema());

  auto render = [&](const TrackRec& t, const std::string& prefix, size_t id) {
    Entity e;
    e.id = prefix + std::to_string(id);
    e.values = {t.song_name, t.artist_name,          t.album_name, t.genre,
                t.copyright, StrFormat("%.2f", t.price), t.time,   t.released};
    return e;
  };

  std::vector<TrackRec> worlds;
  for (size_t i = 0; i < nm; ++i) {
    TrackRec t = MakeTrack(false, &rng);
    worlds.push_back(t);
    ds.a.Append(render(t, "i", i));
    ds.b.Append(render(VaryTrack(t, &rng), "m", i));
    ds.matches.push_back({i, i});
  }
  auto next_track = [&]() {
    if (!worlds.empty() && rng.Bernoulli(0.35)) {
      return MakeSiblingTrack(worlds[rng.UniformInt(worlds.size())], false,
                              &rng);
    }
    return MakeTrack(false, &rng);
  };
  for (size_t i = nm; i < na; ++i) {
    ds.a.Append(render(next_track(), "i", i));
  }
  for (size_t i = nm; i < nb; ++i) {
    ds.b.Append(render(VaryTrack(next_track(), &rng), "m", i));
  }
  return ds;
}

}  // namespace

ERDataset Generate(DatasetKind kind, const GenOptions& options) {
  SERD_CHECK(std::isfinite(options.scale) && options.scale > 0.0)
      << "scale must be positive and finite, got " << options.scale;
  switch (kind) {
    case DatasetKind::kDblpAcm:
      return GenerateDblpAcm(options);
    case DatasetKind::kRestaurant:
      return GenerateRestaurant(options);
    case DatasetKind::kWalmartAmazon:
      return GenerateWalmartAmazon(options);
    case DatasetKind::kItunesAmazon:
      return GenerateItunesAmazon(options);
  }
  SERD_CHECK(false) << "unknown dataset kind";
  return {};
}

std::vector<std::string> BackgroundCorpus(DatasetKind kind,
                                          const std::string& column, size_t n,
                                          uint64_t seed) {
  Rng rng(seed ^ 0xbac4c0de);
  std::vector<std::string> out;
  out.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    switch (kind) {
      case DatasetKind::kDblpAcm: {
        Paper p = MakePaper(true, &rng);
        out.push_back(column == "authors" ? RenderAuthors(p.authors)
                                          : p.title);
        break;
      }
      case DatasetKind::kRestaurant: {
        RestaurantRec r = MakeRestaurant(true, &rng);
        out.push_back(column == "address" ? r.address : r.name);
        break;
      }
      case DatasetKind::kWalmartAmazon: {
        ProductRec p = MakeProduct(true, &rng);
        if (column == "modelno") {
          out.push_back(p.modelno);
        } else if (column == "descr") {
          out.push_back(p.descr);
        } else {
          out.push_back(p.title);
        }
        break;
      }
      case DatasetKind::kItunesAmazon: {
        TrackRec t = MakeTrack(true, &rng);
        if (column == "artist_name") {
          out.push_back(t.artist_name);
        } else if (column == "album_name") {
          out.push_back(t.album_name);
        } else if (column == "copyright") {
          out.push_back(t.copyright);
        } else {
          out.push_back(t.song_name);
        }
        break;
      }
    }
  }
  return out;
}

Table BackgroundEntities(DatasetKind kind, size_t n, uint64_t seed) {
  Rng rng(seed ^ 0xfeedf00d);
  switch (kind) {
    case DatasetKind::kDblpAcm: {
      Table t(DblpAcmSchema());
      const auto& venues = VenuePairs();
      for (size_t i = 0; i < n; ++i) {
        Paper p = MakePaper(true, &rng);
        Entity e;
        e.id = "bg" + std::to_string(i);
        e.values = {p.title, RenderAuthors(p.authors),
                    std::string(venues[p.venue_pair * 2 + 1]),
                    std::to_string(p.year)};
        t.Append(std::move(e));
      }
      return t;
    }
    case DatasetKind::kRestaurant: {
      Table t(RestaurantSchema());
      for (size_t i = 0; i < n; ++i) {
        RestaurantRec r = MakeRestaurant(true, &rng);
        Entity e;
        e.id = "bg" + std::to_string(i);
        e.values = {r.name, r.address, r.city, r.flavor};
        t.Append(std::move(e));
      }
      return t;
    }
    case DatasetKind::kWalmartAmazon: {
      Table t(WalmartAmazonSchema());
      for (size_t i = 0; i < n; ++i) {
        ProductRec p = MakeProduct(true, &rng);
        Entity e;
        e.id = "bg" + std::to_string(i);
        e.values = {p.modelno, p.title, p.descr, p.brand,
                    StrFormat("%.2f", p.price)};
        t.Append(std::move(e));
      }
      return t;
    }
    case DatasetKind::kItunesAmazon: {
      Table t(ItunesAmazonSchema());
      for (size_t i = 0; i < n; ++i) {
        TrackRec tr = MakeTrack(true, &rng);
        Entity e;
        e.id = "bg" + std::to_string(i);
        e.values = {tr.song_name, tr.artist_name, tr.album_name, tr.genre,
                    tr.copyright, StrFormat("%.2f", tr.price), tr.time,
                    tr.released};
        t.Append(std::move(e));
      }
      return t;
    }
  }
  SERD_CHECK(false) << "unknown dataset kind";
  return {};
}

Background StandardBackground(DatasetKind kind, uint64_t seed) {
  Background out;
  out.entities = BackgroundEntities(kind, 100, seed * 7 + 1);
  size_t i = 0;
  for (const auto& col : out.entities.schema().columns()) {
    if (col.type != ColumnType::kText) continue;
    out.corpora.push_back(
        BackgroundCorpus(kind, col.name, 120, seed * 31 + i++));
  }
  return out;
}

}  // namespace serd::datagen

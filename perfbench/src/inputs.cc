// Seeded input generation shared by the workloads. Every schema, edit,
// schedule and probe of a run derives from the workload seed through
// StreamSeed, so one seed always yields the same inputs.

#include "bench.h"
#include "importers/native_format.h"
#include "schema/data_type.h"

namespace perfbench {

uint64_t StreamSeed(uint64_t seed, uint64_t stream) {
  cupid::SplitMix64 mix(seed * 0x9E3779B97F4A7C15ULL + stream);
  return mix.Next();
}

cupid::Schema ThroughImporter(const cupid::Schema& schema) {
  auto parsed = cupid::ParseNativeSchema(cupid::SerializeNativeSchema(schema));
  if (!parsed.ok()) {
    std::fprintf(stderr, "native round trip failed: %s\n",
                 parsed.status().ToString().c_str());
    std::exit(4);
  }
  return std::move(parsed).ValueOrDie();
}

cupid::SyntheticPair MakePair(int elements, bool zipf, uint64_t seed) {
  cupid::SyntheticOptions options;
  options.num_elements = elements;
  options.name_zipf_exponent = zipf ? 1.1 : 0.0;
  options.seed = seed;
  return cupid::GenerateSyntheticPair(options);
}

cupid::ElementId EditGenerator::PickElement(const cupid::Schema& schema,
                                            bool leaf, bool container) {
  // Rejection sampling over non-root elements; the schemas are large
  // enough that a suitable element turns up within a few draws.
  const uint64_t n = static_cast<uint64_t>(schema.num_elements());
  for (int attempt = 0; attempt < 256 && n > 1; ++attempt) {
    auto id = static_cast<cupid::ElementId>(1 + rng_.NextBounded(n - 1));
    bool is_leaf = schema.IsLeaf(id);
    if ((leaf && !is_leaf) || (container && is_leaf)) continue;
    if (schema.FindByPath(schema.PathName(id)) != id) continue;
    return id;
  }
  return cupid::kNoElement;
}

cupid::SchemaEdit EditGenerator::Make(const cupid::Schema& schema, int kind,
                                      cupid::EditSide side) {
  static const char* kNames[] = {"Quantity", "CustomerNumber", "UnitPrice",
                                 "ShipToCity", "OrderDate", "Amount",
                                 "ContactPhone", "PostalCode"};
  static const cupid::DataType kTypes[] = {
      cupid::DataType::kString, cupid::DataType::kInteger,
      cupid::DataType::kDecimal, cupid::DataType::kMoney,
      cupid::DataType::kDate, cupid::DataType::kBoolean};
  ++counter_;
  switch (kind) {
    case 0: {
      cupid::ElementId id = PickElement(schema, /*leaf=*/false, false);
      if (id == cupid::kNoElement) break;
      std::string name = std::string(kNames[rng_.NextBounded(8)]) + "R" +
                         std::to_string(counter_);
      return cupid::SchemaEdit::RenameElement(side, schema.PathName(id),
                                              std::move(name));
    }
    case 1: {
      cupid::ElementId id = PickElement(schema, /*leaf=*/true, false);
      if (id == cupid::kNoElement) break;
      cupid::DataType type = schema.element(id).data_type;
      cupid::DataType next = kTypes[rng_.NextBounded(6)];
      if (next == type) next = kTypes[(rng_.NextBounded(5) + 1) % 6];
      if (next == type) next = cupid::DataType::kText;
      return cupid::SchemaEdit::ChangeDataType(side, schema.PathName(id),
                                               next);
    }
    case 2: {
      cupid::ElementId parent = PickElement(schema, false, /*container=*/true);
      if (parent == cupid::kNoElement) parent = schema.root();
      cupid::Element leaf;
      leaf.name = std::string(kNames[rng_.NextBounded(8)]) + "A" +
                  std::to_string(counter_);
      leaf.kind = cupid::ElementKind::kAtomic;
      leaf.data_type = kTypes[rng_.NextBounded(6)];
      leaf.optional = rng_.NextBernoulli(0.3);
      return cupid::SchemaEdit::AddElement(side, schema.PathName(parent),
                                           std::move(leaf));
    }
    default: {
      cupid::ElementId id = PickElement(schema, /*leaf=*/true, false);
      // Only leaves whose parent keeps another child: removing an only
      // child would turn a container into a leaf.
      if (id == cupid::kNoElement ||
          schema.children(schema.parent(id)).size() < 2) {
        break;
      }
      return cupid::SchemaEdit::RemoveElement(side, schema.PathName(id));
    }
  }
  // No suitable element: retype the first unique leaf instead.
  for (cupid::ElementId id = 1; id < schema.num_elements(); ++id) {
    if (schema.IsLeaf(id) && schema.FindByPath(schema.PathName(id)) == id) {
      cupid::DataType t = schema.element(id).data_type;
      return cupid::SchemaEdit::ChangeDataType(
          side, schema.PathName(id),
          t == cupid::DataType::kString ? cupid::DataType::kText
                                        : cupid::DataType::kString);
    }
  }
  return cupid::SchemaEdit::RenameElement(side, schema.PathName(0),
                                          schema.name() + "R");
}

}  // namespace perfbench

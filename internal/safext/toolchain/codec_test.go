package toolchain

import (
	"crypto/sha256"
	"encoding/hex"
	"reflect"
	"sort"
	"testing"

	"kex/examples/progs"
	"kex/internal/safext/compile"
)

// goldenBuilds are the three build tiers every example program is pinned
// at: naive, analyzer-elided, and MIR-optimized (with TVAL and CONC).
var goldenBuilds = []struct {
	tier  string
	build func(name, src string) (*compile.Object, error)
}{
	{"naive", Build},
	{"elide", BuildOptimized},
	{"mir", BuildOptimizedMIR},
}

// goldenDigests pins the sha256 of the SLXO container for every example
// program at every tier. The registry deduplicates by payload hash and
// signatures cover these exact bytes, so any change here is a wire-format
// change: it must be deliberate, not a side effect of a refactor.
var goldenDigests = map[string]string{
	"counter/elide":        "2b9d2a16e630420ad299e49a2b9265b0361dbd92882f7ebfc017f27b968f02ae",
	"counter/mir":          "20f6457a4937153bdaf75e452037c88997d599ced1683123b374fa021382e23d",
	"counter/naive":        "4edc0e0237fd9340cd6504211195f5252916261baf554d87799338f99d6bb49a",
	"firewall/elide":       "8f915322c44cd6dd7ae0c3bbc225a6d16a27375089560e54d9201993985ac918",
	"firewall/mir":         "884357b65dc3c8b1796fa0cc7315cf4f707b1ea53b5ee90210af001579ec7f05",
	"firewall/naive":       "10cc46f7796769df68e5c55d7c26eb48bef60ff1cca451d4bc0ef8ca0dfccef3",
	"histogram/elide":      "d58834bea91f3b6a6921a4aae19cdbc3956bb0a662e0fb18aea279258224303a",
	"histogram/mir":        "cab9f62613266db1973d3c25dfd99b5e49f48b130adc781fb0ae724b77d7505f",
	"histogram/naive":      "aed24e990748aa173d254cb74520edf48884759f4489e9e32e235d3065c966ee",
	"kvcache/elide":        "9fda3f561966f5943fbd3307781f421277158dc34f65d3bc8a7d7b7045c7590a",
	"kvcache/mir":          "42e574ba8eda036dbe01dcbb5631a75482e78ab7bffc1a625b35881ac5f71f1c",
	"kvcache/naive":        "483c0e4a367be4211b1675e989efa9954abef2e2dc333f5aacc9126ea6ee050d",
	"map_accumulate/elide": "360a5c89aa9a8dca842ac0ab87793882493e0c05dd763a23438fcbf70763afcd",
	"map_accumulate/mir":   "99b286c192d849cfcae5d86bfe1d17ff949b8b29f80b6d6683bbfa98db02e8e0",
	"map_accumulate/naive": "0ec0208f3e5e4b3d730be746ebda5ba8c379db81094c3f0d997e55bc4ad103d8",
	"nested_invar/elide":   "b826534dedf7ec250498dbab12110d5a2cd1225ba9e46aee6eebdfe7c6608217",
	"nested_invar/mir":     "f75907f6d3c4f4db2aa76800127c3df8da212e698e22069ce018452b20862370",
	"nested_invar/naive":   "a4d15fa91a31b595ce3fbbbf46704a3367439b57e8eafafe20d2a4bb8b381900",
	"profiler/elide":       "e3eaee366c06776eb8ecd1f5c4a91930548823933e61dd467bec012f9a3536fd",
	"profiler/mir":         "cfdad997cc84a57b654bb30fff97bf34f82f320de0cc7497803f8e072c7b40ba",
	"profiler/naive":       "876ae250edd14c53db2c47964d1b41f29c1391ce1748c18b59465b196e71baa0",
	"syscall_policy/elide": "ce9275ec0b468e73ca4fbeb9d8f4e13d2d94020aaa428e67d9047d397365eb71",
	"syscall_policy/mir":   "4bcaaac204465dbf36dc10c2960594e5b33c28fa727280a17f5d7e2b785361a7",
	"syscall_policy/naive": "48a81b3dd97ed60628af6cd522732d94f15b4c5513bc04767552d18ebd965ccb",
}

// goldenCorpus builds and serializes every example program at every tier,
// keyed "program/tier".
func goldenCorpus(tb testing.TB) map[string][]byte {
	tb.Helper()
	out := make(map[string][]byte)
	for name, src := range progs.All {
		for _, b := range goldenBuilds {
			obj, err := b.build(name, src)
			if err != nil {
				tb.Fatalf("%s/%s: %v", name, b.tier, err)
			}
			payload, err := Serialize(obj)
			if err != nil {
				tb.Fatalf("%s/%s: serialize: %v", name, b.tier, err)
			}
			out[name+"/"+b.tier] = payload
		}
	}
	return out
}

func TestGoldenObjectDigests(t *testing.T) {
	corpus := goldenCorpus(t)
	keys := make([]string, 0, len(corpus))
	for k := range corpus {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	if len(keys) != len(goldenDigests) {
		t.Errorf("corpus has %d objects, %d goldens", len(keys), len(goldenDigests))
	}
	for _, k := range keys {
		sum := sha256.Sum256(corpus[k])
		if got := hex.EncodeToString(sum[:]); got != goldenDigests[k] {
			t.Errorf("%s: sha256 %s, golden %s", k, got, goldenDigests[k])
		}
	}
}

// FuzzDeserialize: the loader decodes before trust is established, so no
// input may panic it, and whatever it accepts must re-encode to a container
// that decodes to an equal object.
func FuzzDeserialize(f *testing.F) {
	for _, payload := range goldenCorpus(f) {
		f.Add(payload)
	}
	for _, raw := range garbageObjects {
		f.Add(raw)
	}
	f.Fuzz(func(t *testing.T, payload []byte) {
		obj, err := Deserialize(payload)
		if err != nil {
			return
		}
		again, err := Serialize(obj)
		if err != nil {
			t.Fatalf("accepted container does not re-encode: %v", err)
		}
		back, err := Deserialize(again)
		if err != nil {
			t.Fatalf("re-encoded container rejected: %v", err)
		}
		if !reflect.DeepEqual(obj, back) {
			t.Fatalf("round trip changed the object:\n first %+v\nsecond %+v", obj, back)
		}
	})
}

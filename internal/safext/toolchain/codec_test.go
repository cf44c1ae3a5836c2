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
	"counter/elide":        "f5d65a863ca29467f9f36c42f77c1184dc897d1aaefb26581ab5f9a221fa036f",
	"counter/mir":          "dc1e831b7156ec6bc7f5ff725b4bcfb685f0baf813a25a8e8979be2ad11b2d91",
	"counter/naive":        "4edc0e0237fd9340cd6504211195f5252916261baf554d87799338f99d6bb49a",
	"firewall/elide":       "2c1ac2544526e163611cb1a2ce228c11f50e6495b8a4ad5089c8e355a605f5a9",
	"firewall/mir":         "4287da6b55a2a31b3bd18904a76a53ba29f922fba798e0ed08a4f8e09bcf07bf",
	"firewall/naive":       "10cc46f7796769df68e5c55d7c26eb48bef60ff1cca451d4bc0ef8ca0dfccef3",
	"histogram/elide":      "2ddb5e0d69c7f7dafc9dee09356e9e70dbec5a8670a15f64e76a8c118880bb69",
	"histogram/mir":        "3ba860c53ba3154bb5a753b3cc5f4d54c38ca02aef8b28a588ec3c9c3406ca7d",
	"histogram/naive":      "aed24e990748aa173d254cb74520edf48884759f4489e9e32e235d3065c966ee",
	"kvcache/elide":        "4c45402d4359e8c558da7424fcc34892d21bc37b7f1fbcac5b2a685f35f5ddb1",
	"kvcache/mir":          "43a41efed3dcc5a668097bb6a91e81ee02be496423035c4a310ff87fe3db967b",
	"kvcache/naive":        "483c0e4a367be4211b1675e989efa9954abef2e2dc333f5aacc9126ea6ee050d",
	"map_accumulate/elide": "a1e92b7fbd607c614aa84ee091912255a8d4ad35cf04cfc43979dcc7badfab9f",
	"map_accumulate/mir":   "3bbc9dd2072d5ae70c0b1df2aaa7753308e590b580c033f6b6217308b1ac262f",
	"map_accumulate/naive": "0ec0208f3e5e4b3d730be746ebda5ba8c379db81094c3f0d997e55bc4ad103d8",
	"nested_invar/elide":   "a40d2e4d2bfbc5b3304f6dd12d585d906161d38f5be6b47f3ba6ffdd5edbb243",
	"nested_invar/mir":     "28e014c0fba584ebff50b43f77203c77ea5bd0d527269668951086beb7427cb9",
	"nested_invar/naive":   "a4d15fa91a31b595ce3fbbbf46704a3367439b57e8eafafe20d2a4bb8b381900",
	"profiler/elide":       "529489d5fd71e98d0a5056e07512534ccd5b76105b0218e9afac27d7bd648646",
	"profiler/mir":         "af1aa081429454dc34e009766d0ad3a06e62dbf32bbb7d5b0eddf2d3ad996289",
	"profiler/naive":       "876ae250edd14c53db2c47964d1b41f29c1391ce1748c18b59465b196e71baa0",
	"syscall_policy/elide": "05240250d8145cf471bdec266ff46aecd5de1adeca95a095455e2e14ba7d2698",
	"syscall_policy/mir":   "22f0f22628dbee9b96526008c15b6bad7238c9b9ef548d4dd5d1f4ca37b40b53",
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

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
	"counter/elide":        "5902cd1a7d83df4f9437141123d1e0bbab2cc4303984fc048c06abd2b9a31aee",
	"counter/mir":          "dc1e831b7156ec6bc7f5ff725b4bcfb685f0baf813a25a8e8979be2ad11b2d91",
	"counter/naive":        "67f48db191ac603cd79fb03d7e060825510c524ea9e12567917f793f37b84f23",
	"firewall/elide":       "d1304d2fdf128a9c301e898823158efe068e40b8dee861305d1544e895f689db",
	"firewall/mir":         "4287da6b55a2a31b3bd18904a76a53ba29f922fba798e0ed08a4f8e09bcf07bf",
	"firewall/naive":       "0837898fc8b073709953cc7722d62679c4f5da378c4c3fbfce8d12fc80b2820c",
	"histogram/elide":      "f333f72e55ff126040c6e62378105938ad64f371a88bf9712e64c8e436760c89",
	"histogram/mir":        "3ba860c53ba3154bb5a753b3cc5f4d54c38ca02aef8b28a588ec3c9c3406ca7d",
	"histogram/naive":      "4d4eaebb3515acaba1a7acac7d5ef127916a956e93a01eda39956c0e62c1cf61",
	"kvcache/elide":        "ee76d8085eb05f391e1830b1703892321a635ca30b30eaee56c0ba7e70218190",
	"kvcache/mir":          "43a41efed3dcc5a668097bb6a91e81ee02be496423035c4a310ff87fe3db967b",
	"kvcache/naive":        "a8c4196593b1856567c70b104395641a55723abc0037d3fe069063f13278cb04",
	"map_accumulate/elide": "2d9cc21519153c80ef239e62c91c241c52c8d5a97f586534e31e40cc2c40c601",
	"map_accumulate/mir":   "3bbc9dd2072d5ae70c0b1df2aaa7753308e590b580c033f6b6217308b1ac262f",
	"map_accumulate/naive": "caedabcdf95412307950cdbfd08e3d6f56144436c56f0a2b9f9799f58c574f3f",
	"nested_invar/elide":   "3b513a845f39bf6f4e6dfd09c6a9a0e71a489af718cf6df0f0b4d5e9edaa95a6",
	"nested_invar/mir":     "28e014c0fba584ebff50b43f77203c77ea5bd0d527269668951086beb7427cb9",
	"nested_invar/naive":   "86ebb1e4ad71f98e6bb13b3f76e20fc4b08f924390d97ba3acf6d9ffbddac043",
	"profiler/elide":       "c7458942b0f0bbee4200d6e753d363fe4fa6413049344b4c119bb8c73c0faa1f",
	"profiler/mir":         "af1aa081429454dc34e009766d0ad3a06e62dbf32bbb7d5b0eddf2d3ad996289",
	"profiler/naive":       "ceee17f1d68884bd7b15b4fed4d618d934c0a2322d9cc1b3398a8d111f471af9",
	"syscall_policy/elide": "e81ecd62f3da6ffc084998fea19789d3a233c7509aac41aa17e36818fd93b6c2",
	"syscall_policy/mir":   "22f0f22628dbee9b96526008c15b6bad7238c9b9ef548d4dd5d1f4ca37b40b53",
	"syscall_policy/naive": "eb1cb1965d4d0fe22cf20007fde6c4341fd7ed72f766b93ff2f3da9d1b921f3f",
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

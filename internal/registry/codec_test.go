package registry

import (
	"crypto/ed25519"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"kex/internal/ebpf/isa"
	"kex/internal/safext/toolchain"
)

// goldenSignedObject is a fixed SOBJ input: ed25519 signing is
// deterministic, so a key from a fixed seed gives fixed bytes.
func goldenSignedObject() *toolchain.SignedObject {
	priv := ed25519.NewKeyFromSeed(make([]byte, ed25519.SeedSize))
	payload := []byte("SLXO golden payload")
	return &toolchain.SignedObject{
		Payload:   payload,
		Signature: ed25519.Sign(priv, payload),
		PublicKey: priv.Public().(ed25519.PublicKey),
	}
}

func goldenProgram() *isa.Program {
	return &isa.Program{
		Name:    "xdp_golden",
		Type:    isa.XDP,
		License: "GPL",
		Insns: []isa.Instruction{
			isa.Mov64Imm(0, 2),
			isa.Exit(),
		},
	}
}

func goldenManifest() *Manifest {
	return &Manifest{
		Bundle:  "edge",
		Version: 7,
		Entries: []Entry{
			{Name: "policy", Kind: KindSLXO, Digest: DigestOf([]byte("a"))},
			{Name: "filter", Kind: KindEBPF, Digest: DigestOf([]byte("b"))},
		},
	}
}

// goldenEncodings returns the SOBJ, EBPF and KXMF encodings of the fixed
// inputs above.
func goldenEncodings(tb testing.TB) map[string][]byte {
	tb.Helper()
	prog, err := EncodeProgram(goldenProgram())
	if err != nil {
		tb.Fatal(err)
	}
	return map[string][]byte{
		"SOBJ": EncodeSignedObject(goldenSignedObject()),
		"EBPF": prog,
		"KXMF": goldenManifest().encode(),
	}
}

// TestGoldenEncodings pins the registry wire forms byte for byte: blob
// digests and manifest signatures cover these exact bytes.
func TestGoldenEncodings(t *testing.T) {
	want := map[string]string{
		"SOBJ": "d3294291a77ceb4e577cc74076aaad34ec759fb717392ce8c885fd9e41f24e9e",
		"EBPF": "e16e5d568fe5d1f1db3754487d9462935d1f1d90950959a02b5d98d2df03d0cf",
		"KXMF": "b3b044df92d076440db0b2591efda8d0742d2c49d2c16f943b5bc2df5d13d7ea",
	}
	for kind, b := range goldenEncodings(t) {
		sum := sha256.Sum256(b)
		if got := hex.EncodeToString(sum[:]); got != want[kind] {
			t.Errorf("%s: sha256 %s, golden %s", kind, got, want[kind])
		}
	}
}

// garbageBlobs are inputs each named decoder must reject. FuzzDecode seeds
// from them too.
var garbageBlobs = []struct {
	decoder string
	raw     []byte
}{
	{"manifest", []byte("KXMF\x02\x00\x00\x00")},
	{"manifest", []byte("KXMF\x01\x00\x00\x00\x04\x00\x00\x00edg")},
	// An entry count far beyond the bytes that follow.
	{"manifest", []byte("KXMF\x01\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\xff\xff\xff\xff")},
	// Trailing bytes after a complete encoding.
	{"manifest", append(goldenManifest().encode(), 0)},
	{"sobj", []byte("SOBJ\x05\x00\x00\x00abc")},
	{"sobj", append(EncodeSignedObject(goldenSignedObject()), 0)},
	{"ebpf", []byte("EBPF\x01\x00\x00\x00x")},
	// The instruction stream runs to the end of the payload, so a trailing
	// byte is a partial instruction.
	{"ebpf", append(mustEncodeProgram(goldenProgram()), 0)},
}

func mustEncodeProgram(p *isa.Program) []byte {
	b, err := EncodeProgram(p)
	if err != nil {
		panic(err)
	}
	return b
}

func TestDecodersRejectGarbage(t *testing.T) {
	for _, c := range garbageBlobs {
		if err := decoders[c.decoder](c.raw); err == nil {
			t.Errorf("%s decoder accepted %q", c.decoder, c.raw)
		}
	}
}

// decoders run one registry decoder and, when it accepts, check that the
// value re-encodes to bytes that decode to an equal value.
var decoders = map[string]func([]byte) error{
	"manifest": func(b []byte) error {
		m, err := DecodeManifest(b)
		if err != nil {
			return err
		}
		return sameAfterRoundTrip(m, func() (any, error) { return DecodeManifest(m.encode()) })
	},
	"sobj": func(b []byte) error {
		so, err := DecodeSignedObject(b)
		if err != nil {
			return err
		}
		return sameAfterRoundTrip(so, func() (any, error) { return DecodeSignedObject(EncodeSignedObject(so)) })
	},
	"ebpf": func(b []byte) error {
		p, err := DecodeProgram(b)
		if err != nil {
			return err
		}
		return sameAfterRoundTrip(p, func() (any, error) {
			enc, err := EncodeProgram(p)
			if err != nil {
				return nil, err
			}
			return DecodeProgram(enc)
		})
	},
}

// errRoundTrip marks an accepted input whose value does not survive a
// re-encode: a decoder asymmetry, never an acceptable rejection.
var errRoundTrip = errors.New("accepted input does not round-trip")

func sameAfterRoundTrip(v any, again func() (any, error)) error {
	back, err := again()
	if err != nil {
		return fmt.Errorf("%w: %v", errRoundTrip, err)
	}
	if !reflect.DeepEqual(v, back) {
		return fmt.Errorf("%w:\n first %+v\nsecond %+v", errRoundTrip, v, back)
	}
	return nil
}

// FuzzDecode feeds every input to all three registry decoders: none may
// panic, and whatever one accepts must round-trip.
func FuzzDecode(f *testing.F) {
	for _, b := range goldenEncodings(f) {
		f.Add(b)
	}
	for _, c := range garbageBlobs {
		f.Add(c.raw)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		for name, decode := range decoders {
			if err := decode(b); errors.Is(err, errRoundTrip) {
				t.Fatalf("%s: %v", name, err)
			}
		}
	})
}

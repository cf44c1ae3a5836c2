package registry

import (
	"bytes"
	"crypto/ed25519"
	"encoding/binary"
	"fmt"

	"kex/internal/ebpf/isa"
	"kex/internal/safext/toolchain"
	"kex/internal/wire"
)

// Entry names one member of a bundle: the program's logical name, what
// kind of artifact backs it, and the content address of those bytes.
type Entry struct {
	Name   string
	Kind   Kind
	Digest string
}

// Manifest is a bundle's table of contents at one version: the set of
// programs a node should be running, by digest. Versions are assigned by
// the registry at publish time and only ever move forward.
type Manifest struct {
	Bundle  string
	Version uint64
	Entries []Entry
}

// SignedManifest is the wire form: the manifest plus the registry's
// signature over its canonical encoding.
type SignedManifest struct {
	Manifest  Manifest
	Signature []byte
	KeyID     string
}

// The canonical manifest encoding: a little-endian TLV in the style of the
// SLXO container, so the signature has exactly one byte representation to
// cover.
//
//	magic "KXMF" | version u32 | bundle str | manifest version u64 |
//	entry count u32 | entries (name str | kind str | digest str)

var manifestMagic = [4]byte{'K', 'X', 'M', 'F'}

const manifestFormat = 1

func (m *Manifest) encode() []byte {
	var w wire.Writer
	w.Raw(manifestMagic[:])
	w.U32(manifestFormat)
	w.Str(m.Bundle)
	w.U64(m.Version)
	w.U32(uint32(len(m.Entries)))
	for _, e := range m.Entries {
		w.Str(e.Name)
		w.Str(string(e.Kind))
		w.Str(e.Digest)
	}
	return w.Data()
}

// DecodeManifest parses a canonical manifest encoding.
func DecodeManifest(b []byte) (*Manifest, error) {
	if len(b) < 8 || !bytes.Equal(b[:4], manifestMagic[:]) {
		return nil, fmt.Errorf("registry: bad manifest magic")
	}
	if v := binary.LittleEndian.Uint32(b[4:8]); v != manifestFormat {
		return nil, fmt.Errorf("registry: unsupported manifest format %d", v)
	}
	r := wire.NewReader(b[8:], "registry", "manifest")
	m := &Manifest{Bundle: r.Str(wire.Unbounded), Version: r.U64()}
	for i, n := 0, r.Count(wire.Unbounded); i < n; i++ {
		m.Entries = append(m.Entries, Entry{
			Name:   r.Str(wire.Unbounded),
			Kind:   Kind(r.Str(wire.Unbounded)),
			Digest: r.Str(wire.Unbounded),
		})
	}
	if err := r.Done(); err != nil {
		return nil, err
	}
	return m, nil
}

// Publish signs a new manifest version for a bundle. Every entry must
// already be stored and unrevoked — a manifest must never point at bytes
// the registry cannot serve.
func (r *Registry) Publish(bundle string, entries []Entry) (*SignedManifest, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, e := range entries {
		b, ok := r.blobs[e.Digest]
		if !ok {
			return nil, fmt.Errorf("%w: manifest entry %s at %s", ErrUnknownDigest, e.Name, e.Digest)
		}
		if r.revDigests[e.Digest] {
			return nil, fmt.Errorf("%w: manifest entry %s at %s", ErrRevoked, e.Name, e.Digest)
		}
		if b.Kind != e.Kind {
			return nil, fmt.Errorf("registry: manifest entry %s kind %q, stored blob is %q", e.Name, e.Kind, b.Kind)
		}
	}
	m := Manifest{Bundle: bundle, Version: 1, Entries: append([]Entry(nil), entries...)}
	if prev := r.manifests[bundle]; prev != nil {
		m.Version = prev.Manifest.Version + 1
	}
	k := r.keys[r.active]
	sm := &SignedManifest{
		Manifest:  m,
		Signature: ed25519.Sign(k.priv, m.encode()),
		KeyID:     k.id,
	}
	r.manifests[bundle] = sm
	r.history[bundle] = append(r.history[bundle], sm)
	return sm, nil
}

// Manifest returns the latest signed manifest for a bundle.
func (r *Registry) Manifest(bundle string) (*SignedManifest, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	sm, ok := r.manifests[bundle]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrUnknownBundle, bundle)
	}
	return sm, nil
}

// History returns every published version of a bundle, oldest first — the
// rollback ladder.
func (r *Registry) History(bundle string) []*SignedManifest {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return append([]*SignedManifest(nil), r.history[bundle]...)
}

// Blob payload codecs. A blob's payload is opaque to the store; these fix
// the wire forms for the two artifact kinds the fleet ships.

// The signed-object wire form: "SOBJ" | payload str | signature str |
// public key str (all length-prefixed byte strings). The toolchain's
// signature travels inside the registry payload, so the content address
// covers it: re-signing a program with a different toolchain key is a
// different artifact.
var sobjMagic = [4]byte{'S', 'O', 'B', 'J'}

// EncodeSignedObject fixes a toolchain.SignedObject into registry payload
// bytes.
func EncodeSignedObject(so *toolchain.SignedObject) []byte {
	var w wire.Writer
	w.Raw(sobjMagic[:])
	w.Bytes(so.Payload)
	w.Bytes(so.Signature)
	w.Bytes(so.PublicKey)
	return w.Data()
}

// DecodeSignedObject parses registry payload bytes back into a
// toolchain.SignedObject.
func DecodeSignedObject(b []byte) (*toolchain.SignedObject, error) {
	if len(b) < 4 || !bytes.Equal(b[:4], sobjMagic[:]) {
		return nil, fmt.Errorf("registry: bad signed-object magic")
	}
	r := wire.NewReader(b[4:], "registry", "signed object")
	so := &toolchain.SignedObject{
		Payload:   r.Bytes(wire.Unbounded),
		Signature: r.Bytes(wire.Unbounded),
		PublicKey: ed25519.PublicKey(r.Bytes(wire.Unbounded)),
	}
	if err := r.Done(); err != nil {
		return nil, err
	}
	return so, nil
}

// The eBPF program wire form: "EBPF" | name str | license str |
// prog type u32 | encoded instruction stream. The stream runs to the end
// of the payload; isa.Decode rejects a partial instruction.
var ebpfMagic = [4]byte{'E', 'B', 'P', 'F'}

// EncodeProgram fixes an eBPF program into registry payload bytes.
func EncodeProgram(p *isa.Program) ([]byte, error) {
	code, err := isa.Encode(p.Insns)
	if err != nil {
		return nil, fmt.Errorf("registry: encode program %s: %w", p.Name, err)
	}
	var w wire.Writer
	w.Raw(ebpfMagic[:])
	w.Str(p.Name)
	w.Str(p.License)
	w.U32(uint32(p.Type))
	w.Raw(code)
	return w.Data(), nil
}

// DecodeProgram parses registry payload bytes back into an eBPF program.
func DecodeProgram(b []byte) (*isa.Program, error) {
	if len(b) < 4 || !bytes.Equal(b[:4], ebpfMagic[:]) {
		return nil, fmt.Errorf("registry: bad program magic")
	}
	r := wire.NewReader(b[4:], "registry", "program")
	p := &isa.Program{Name: r.Str(wire.Unbounded), License: r.Str(wire.Unbounded), Type: isa.ProgType(r.U32())}
	code := r.Rest()
	if err := r.Done(); err != nil {
		return nil, err
	}
	insns, err := isa.Decode(code)
	if err != nil {
		return nil, err
	}
	p.Insns = insns
	return p, nil
}

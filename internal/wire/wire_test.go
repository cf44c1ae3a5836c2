package wire

import (
	"reflect"
	"strings"
	"testing"
)

func TestRoundTrip(t *testing.T) {
	var w Writer
	w.U32(7)
	w.U64(1 << 40)
	w.Str("name")
	w.Bytes([]byte{1, 2})
	w.Raw([]byte("tail"))
	r := NewReader(w.Data(), "pkg", "thing")
	got := []any{r.U32(), r.U64(), r.Str(4), r.Bytes(2), string(r.Rest())}
	want := []any{uint32(7), uint64(1 << 40), "name", []byte{1, 2}, "tail"}
	if err := r.Done(); err != nil || !reflect.DeepEqual(got, want) {
		t.Fatalf("got %v (err %v), want %v", got, err, want)
	}
}

func TestReaderErrors(t *testing.T) {
	cases := []struct {
		name string
		in   []byte
		read func(r *Reader)
		want string
	}{
		{"short u32", []byte{1, 2}, func(r *Reader) { r.U32() }, "pkg: truncated thing"},
		{"short string", []byte{5, 0, 0, 0, 'a'}, func(r *Reader) { r.Str(10) }, "pkg: truncated thing"},
		{"string over cap", []byte{5, 0, 0, 0, 'a', 'b', 'c', 'd', 'e'}, func(r *Reader) { r.Str(4) }, "pkg: oversized thing"},
		{"count over cap", []byte{9, 0, 0, 0}, func(r *Reader) { r.Count(8) }, "pkg: oversized thing"},
		{"count beyond input", []byte{3, 0, 0, 0, 0, 0}, func(r *Reader) { r.Count(Unbounded) }, "pkg: truncated thing"},
		{"trailing bytes", []byte{1, 0, 0, 0, 9}, func(r *Reader) { r.U32() }, "pkg: oversized thing"},
		// The first error sticks: the later reads neither panic nor
		// replace it.
		{"sticky", []byte{1}, func(r *Reader) {
			r.U64()
			if r.U32() != 0 || r.Str(1) != "" || r.Count(1) != 0 || r.Rest() != nil || r.Len() != 0 {
				panic("read after error returned data")
			}
		}, "pkg: truncated thing"},
	}
	for _, c := range cases {
		r := NewReader(c.in, "pkg", "thing")
		c.read(r)
		if err := r.Done(); err == nil || !strings.HasPrefix(err.Error(), c.want) {
			t.Errorf("%s: err = %v, want prefix %q", c.name, err, c.want)
		}
	}
}

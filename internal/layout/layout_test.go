package layout

import (
	"testing"
	"testing/quick"
)

func TestRecordRoundTrip(t *testing.T) {
	t.Parallel()
	r := make(Record, 64)
	r.PutU8(0, 0xAB)
	r.PutU32(4, 0xDEADBEEF)
	r.PutU64(8, 0x0123456789ABCDEF)
	if r.U8(0) != 0xAB || r.U32(4) != 0xDEADBEEF || r.U64(8) != 0x0123456789ABCDEF {
		t.Fatalf("round trip failed: %v", r[:16])
	}
}

func TestRecordBytes(t *testing.T) {
	t.Parallel()
	r := make(Record, 16)
	copy(r.Bytes(4, 4), "abcd")
	if string(r[4:8]) != "abcd" {
		t.Fatal("Bytes is not an aliasing sub-slice")
	}
}

func TestChecksumStableAndSensitive(t *testing.T) {
	t.Parallel()
	a := Checksum([]byte("denova"))
	if a != Checksum([]byte("denova")) {
		t.Fatal("checksum not deterministic")
	}
	if a == Checksum([]byte("denovb")) {
		t.Fatal("checksum insensitive to change")
	}
	if Checksum(nil) != 0 {
		t.Fatal("checksum of empty input should be 0")
	}
}

func TestAlign(t *testing.T) {
	t.Parallel()
	cases := []struct{ v, a, want int64 }{
		{0, 64, 0}, {1, 64, 64}, {64, 64, 64}, {65, 64, 128},
		{4095, 4096, 4096}, {4096, 4096, 4096},
	}
	for _, c := range cases {
		if got := Align(c.v, c.a); got != c.want {
			t.Errorf("Align(%d,%d) = %d, want %d", c.v, c.a, got, c.want)
		}
	}
}

func TestDivCeil(t *testing.T) {
	t.Parallel()
	cases := []struct{ a, b, want int64 }{
		{0, 4, 0}, {1, 4, 1}, {4, 4, 1}, {5, 4, 2}, {8, 4, 2},
	}
	for _, c := range cases {
		if got := DivCeil(c.a, c.b); got != c.want {
			t.Errorf("DivCeil(%d,%d) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestLog2Ceil(t *testing.T) {
	t.Parallel()
	cases := []struct {
		v    int64
		want int
	}{
		{1, 0}, {2, 1}, {3, 2}, {4, 2}, {5, 3}, {1 << 18, 18}, {1<<18 + 1, 19},
	}
	for _, c := range cases {
		if got := Log2Ceil(c.v); got != c.want {
			t.Errorf("Log2Ceil(%d) = %d, want %d", c.v, got, c.want)
		}
	}
}

func TestPropertyAlignIsAligned(t *testing.T) {
	t.Parallel()
	f := func(v uint32) bool {
		a := Align(int64(v), 64)
		return a%64 == 0 && a >= int64(v) && a-int64(v) < 64
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyLog2CeilBounds(t *testing.T) {
	t.Parallel()
	f := func(v uint16) bool {
		x := int64(v)%100000 + 1
		n := Log2Ceil(x)
		return int64(1)<<n >= x && (n == 0 || int64(1)<<(n-1) < x)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

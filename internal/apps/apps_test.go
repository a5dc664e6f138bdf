package apps

import (
	"strings"
	"testing"
	"testing/quick"

	"clustersim/internal/core"
)

func testMachine(t *testing.T) *core.Machine {
	t.Helper()
	cfg := core.DefaultConfig()
	cfg.Procs = 2
	m, err := core.NewMachine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestTypedArraysRoundTrip(t *testing.T) {
	m := testMachine(t)
	f := NewArray[float64](m, 16, "f")
	i := NewArray[int64](m, 16, "i")
	c := NewArray[complex128](m, 16, "c")
	u := NewArray[uint8](m, 16, "u")
	_, err := m.Run(func(p *core.Proc) {
		if p.ID() != 0 {
			return
		}
		f.Set(p, 3, 2.5)
		i.Set(p, 4, -7)
		c.Set(p, 5, complex(1, 2))
		u.Set(p, 6, 200)
		if f.Get(p, 3) != 2.5 || i.Get(p, 4) != -7 || c.Get(p, 5) != complex(1, 2) || u.Get(p, 6) != 200 {
			t.Error("round trip failed")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Data) != 16 || len(i.Data) != 16 || len(c.Data) != 16 || len(u.Data) != 16 {
		t.Error("lengths wrong")
	}
}

func TestArrayAddressStrides(t *testing.T) {
	m := testMachine(t)
	f := NewArray[float64](m, 4, "f")
	if f.Addr(1)-f.Addr(0) != 8 {
		t.Error("f64 stride")
	}
	c := NewArray[complex128](m, 4, "c")
	if c.Addr(1)-c.Addr(0) != 16 {
		t.Error("c128 stride")
	}
	u := NewArray[uint8](m, 4, "u")
	if u.Addr(1)-u.Addr(0) != 1 {
		t.Error("u8 stride")
	}
	r := NewRecs(m, 4, 96, "r")
	if r.Addr(2, 8)-r.Addr(1, 8) != 96 {
		t.Error("rec stride")
	}
}

func TestChunkCoversExactly(t *testing.T) {
	f := func(nSeed, pSeed uint16) bool {
		n := int(nSeed % 1000)
		procs := int(pSeed%64) + 1
		covered := 0
		prevHi := 0
		for id := 0; id < procs; id++ {
			lo, hi := Chunk(n, id, procs)
			if lo != prevHi || hi < lo {
				return false
			}
			covered += hi - lo
			prevHi = hi
			if hi-lo > n/procs+1 {
				return false // imbalance worse than one item
			}
		}
		return covered == n && prevHi == n
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestProcGrid(t *testing.T) {
	cases := map[int][2]int{
		1:  {1, 1},
		2:  {1, 2},
		4:  {2, 2},
		8:  {2, 4},
		16: {4, 4},
		64: {8, 8},
	}
	for procs, want := range cases {
		pr, pc := ProcGrid(procs)
		if pr != want[0] || pc != want[1] {
			t.Errorf("ProcGrid(%d) = %d×%d, want %d×%d", procs, pr, pc, want[0], want[1])
		}
		if pr*pc != procs {
			t.Errorf("ProcGrid(%d) does not cover", procs)
		}
	}
}

func TestMorton3(t *testing.T) {
	if Morton3(0, 0, 0) != 0 {
		t.Error("origin")
	}
	if Morton3(1, 0, 0) != 1 || Morton3(0, 1, 0) != 2 || Morton3(0, 0, 1) != 4 {
		t.Error("unit axes")
	}
	// Z-order property: interleaved bits.
	if Morton3(3, 0, 0) != 0b1001 {
		t.Errorf("Morton3(3,0,0) = %b", Morton3(3, 0, 0))
	}
	// Distinct small coordinates must give distinct keys.
	seen := map[uint32]bool{}
	for x := uint32(0); x < 8; x++ {
		for y := uint32(0); y < 8; y++ {
			for z := uint32(0); z < 8; z++ {
				k := Morton3(x, y, z)
				if seen[k] {
					t.Fatalf("collision at (%d,%d,%d)", x, y, z)
				}
				seen[k] = true
			}
		}
	}
}

func TestSizeString(t *testing.T) {
	if SizeTest.String() != "test" || SizeDefault.String() != "default" || SizePaper.String() != "paper" {
		t.Error("size strings")
	}
}

// TestParseSizeInvertsString: every size class round-trips through its
// name, and an unknown name is an error that lists the valid ones.
func TestParseSizeInvertsString(t *testing.T) {
	for _, s := range []Size{SizeTest, SizeDefault, SizePaper} {
		got, err := ParseSize(s.String())
		if err != nil || got != s {
			t.Errorf("ParseSize(%q) = %v, %v; want %v", s.String(), got, err, s)
		}
	}
	if _, err := ParseSize("galactic"); err == nil || !strings.Contains(err.Error(), "test, default or paper") {
		t.Errorf("ParseSize(galactic) error = %v, want one naming the valid sizes", err)
	}
}

package mem

import (
	"math/rand"
	"testing"
	"testing/quick"

	"spawnsim/internal/config"
	"spawnsim/internal/sim/kernel"
)

func TestCacheHitAfterFill(t *testing.T) {
	c := NewCache(16*1024, 4, 128) // 128 lines, 32 sets
	if c.Access(42) {
		t.Error("cold access hit")
	}
	if !c.Access(42) {
		t.Error("second access missed")
	}
	if c.Accesses != 2 || c.Hits != 1 {
		t.Errorf("stats = %d/%d, want 2/1", c.Hits, c.Accesses)
	}
	if got := c.HitRate(); got != 0.5 {
		t.Errorf("hit rate = %v, want 0.5", got)
	}
}

func TestCacheLRUEviction(t *testing.T) {
	c := NewCache(4*128, 4, 128) // 1 set, 4 ways
	for line := uint64(0); line < 4; line++ {
		c.Access(line)
	}
	c.Access(0) // refresh line 0
	c.Access(4) // evicts LRU = line 1
	if !c.Probe(0) {
		t.Error("line 0 evicted despite refresh")
	}
	if c.Probe(1) {
		t.Error("line 1 not evicted")
	}
	if !c.Probe(4) {
		t.Error("line 4 not resident")
	}
}

func TestCacheSetMapping(t *testing.T) {
	c := NewCache(16*1024, 4, 128)
	sets := uint64(c.Sets())
	// Lines mapping to different sets never conflict.
	c.Access(0)
	for i := uint64(1); i < sets; i++ {
		c.Access(i)
	}
	if !c.Probe(0) {
		t.Error("line 0 evicted by accesses to other sets")
	}
}

func testCfg() config.GPU { return config.K20m() }

func TestHierarchyL1Hit(t *testing.T) {
	h := NewHierarchy(testCfg())
	cfg := testCfg()
	// First access: full miss to DRAM.
	t1 := h.Access(0, 0, []uint64{0x1000})
	if t1 <= cfg.L2HitLatency {
		t.Errorf("cold miss completed too fast: %d", t1)
	}
	// Second access to the same line: L1 hit.
	t2 := h.Access(1000, 0, []uint64{0x1000})
	want := 1000 + cfg.L1HitLatency
	if t2 != want {
		t.Errorf("L1 hit completion = %d, want %d", t2, want)
	}
}

func TestHierarchyL2SharedAcrossSMXs(t *testing.T) {
	h := NewHierarchy(testCfg())
	h.Access(0, 0, []uint64{0x2000}) // SMX 0 warms L2
	before := h.DRAMAccesses
	h.Access(5000, 1, []uint64{0x2000}) // SMX 1 misses L1, hits shared L2
	if h.DRAMAccesses != before {
		t.Error("second SMX went to DRAM despite warm L2")
	}
	if h.L2HitRate() == 0 {
		t.Error("L2 hit rate is zero after a shared hit")
	}
}

func TestHierarchyCoalescing(t *testing.T) {
	h := NewHierarchy(testCfg())
	// 32 lanes touching consecutive 4-byte words: one 128B line.
	addrs := make([]uint64, 32)
	for i := range addrs {
		addrs[i] = 0x8000 + uint64(i*4)
	}
	h.Access(0, 0, addrs)
	if h.Transactions != 1 {
		t.Errorf("transactions = %d, want 1 (perfectly coalesced)", h.Transactions)
	}
	// 32 lanes striding 128B: 32 transactions.
	for i := range addrs {
		addrs[i] = 0x100000 + uint64(i*128)
	}
	h.Access(0, 0, addrs)
	if h.Transactions != 33 {
		t.Errorf("transactions = %d, want 33 (uncoalesced)", h.Transactions)
	}
}

func TestHierarchyDRAMRowLocality(t *testing.T) {
	cfg := testCfg()
	h := NewHierarchy(cfg)
	// Two consecutive same-bank lines map to the same row
	// (banks interleave at partition*bank granularity).
	stride := uint64(cfg.L2Partitions*cfg.BanksPerMC) * uint64(cfg.CacheLineBytes)
	h.Access(0, 0, []uint64{0})
	h.Access(100000, 0, []uint64{stride})
	if h.DRAMAccesses != 2 {
		t.Fatalf("DRAM accesses = %d, want 2", h.DRAMAccesses)
	}
	if h.DRAMRowHits != 1 {
		t.Errorf("row hits = %d, want 1 (same-row consecutive lines)", h.DRAMRowHits)
	}
}

func TestHierarchyPortContention(t *testing.T) {
	h := NewHierarchy(testCfg())
	cfg := testCfg()
	// Warm the line so both accesses are L1 hits; the second is delayed
	// one cycle by the L1 port.
	h.Access(0, 0, []uint64{0x40000})
	h.Access(0, 0, []uint64{0x40000}) // same cycle? port was advanced; re-warm timing:
	t1 := h.Access(10000, 0, []uint64{0x40000})
	t2 := h.Access(10000, 0, []uint64{0x40000})
	if t2 != t1+1 {
		t.Errorf("port contention: t1=%d t2=%d, want t2 = t1+1", t1, t2)
	}
	_ = cfg
}

func TestHierarchyMonotoneCompletion(t *testing.T) {
	h := NewHierarchy(testCfg())
	f := func(addrRaw []uint32, smxRaw uint8) bool {
		if len(addrRaw) == 0 {
			return true
		}
		smx := int(smxRaw) % 13
		addrs := make([]uint64, 0, len(addrRaw))
		for _, a := range addrRaw {
			addrs = append(addrs, uint64(a))
		}
		now := kernel.Cycle(1000)
		done := h.Access(now, smx, addrs)
		return done > now
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPartitionAndBankMapping(t *testing.T) {
	cfg := testCfg()
	h := NewHierarchy(cfg)
	// Partition mapping covers all partitions for consecutive lines.
	seen := map[int]bool{}
	for line := uint64(0); line < uint64(cfg.L2Partitions); line++ {
		p, _ := h.partitionOf(line)
		if p < 0 || p >= cfg.L2Partitions {
			t.Fatalf("partition %d out of range", p)
		}
		seen[p] = true
	}
	if len(seen) != cfg.L2Partitions {
		t.Errorf("consecutive lines cover %d partitions, want %d", len(seen), cfg.L2Partitions)
	}
	// Bank ids stay in range.
	for line := uint64(0); line < 10000; line += 97 {
		b, _ := h.dramAddr(h.partitionOf(line))
		if b < 0 || b >= cfg.MemControllers*cfg.BanksPerMC {
			t.Fatalf("bank %d out of range for line %d", b, line)
		}
	}
}

// refCache is the original tag array, kept as the oracle for Cache:
// parallel valid/tag/use arrays, an early return on hit, and a victim
// that is the last invalid way, otherwise the least recently used one.
type refCache struct {
	sets, ways     int
	valid          []bool
	tag, use       []uint64
	clock          uint64
	accesses, hits uint64
}

func newRefCache(sets, ways int) *refCache {
	n := sets * ways
	return &refCache{sets: sets, ways: ways, valid: make([]bool, n), tag: make([]uint64, n), use: make([]uint64, n)}
}

func (c *refCache) access(line uint64) bool {
	c.clock++
	c.accesses++
	base := int(line%uint64(c.sets)) * c.ways
	victim := base
	for i := base; i < base+c.ways; i++ {
		if c.valid[i] && c.tag[i] == line {
			c.use[i] = c.clock
			c.hits++
			return true
		}
		if !c.valid[i] {
			victim = i
		} else if c.valid[victim] && c.use[i] < c.use[victim] {
			victim = i
		}
	}
	c.valid[victim] = true
	c.tag[victim] = line
	c.use[victim] = c.clock
	return false
}

func (c *refCache) probe(line uint64) bool {
	base := int(line%uint64(c.sets)) * c.ways
	for i := base; i < base+c.ways; i++ {
		if c.valid[i] && c.tag[i] == line {
			return true
		}
	}
	return false
}

// TestCacheMatchesReference drives Cache and the original tag array
// with the same seeded line streams and requires the same hit/miss
// sequence, counters and Probe answers. The geometries cover
// power-of-two and other set counts, a single set, and 1-, 3-, 4-, 8-
// and 16-way sets; the streams range from dense (reuse within about
// twice the capacity) to sparse (almost every access misses).
func TestCacheMatchesReference(t *testing.T) {
	const lineBytes = 128
	geoms := []struct{ sets, ways int }{
		{1, 1}, {1, 4}, {1, 16}, {32, 4}, {128, 8}, {96, 8}, {12, 16}, {7, 1}, {3, 3}, {64, 3},
	}
	for _, g := range geoms {
		lines := uint64(g.sets * g.ways)
		for _, span := range []uint64{lines, 2 * lines, 8 * lines, 1 << 40} {
			c := NewCache(kernel.Bytes(g.sets*g.ways*lineBytes), g.ways, lineBytes)
			if c.Sets() != g.sets {
				t.Fatalf("%dx%d: Sets() = %d", g.sets, g.ways, c.Sets())
			}
			ref := newRefCache(g.sets, g.ways)
			rng := rand.New(rand.NewSource(int64(g.sets*1000 + g.ways)))
			stream := make([]uint64, 20000)
			for i := range stream {
				stream[i] = uint64(rng.Int63n(int64(span)))
			}
			for i, line := range stream {
				if got, want := c.Access(line), ref.access(line); got != want {
					t.Fatalf("%dx%d span %d: access %d (line %d) hit=%v, reference hit=%v",
						g.sets, g.ways, span, i, line, got, want)
				}
			}
			if c.Hits != ref.hits || c.Accesses != ref.accesses {
				t.Errorf("%dx%d span %d: hits/accesses %d/%d, reference %d/%d",
					g.sets, g.ways, span, c.Hits, c.Accesses, ref.hits, ref.accesses)
			}
			for _, line := range append(stream[len(stream)-200:], 0, 1, lines, lines+1) {
				if got, want := c.Probe(line), ref.probe(line); got != want {
					t.Errorf("%dx%d span %d: Probe(%d) = %v, reference %v", g.sets, g.ways, span, line, got, want)
				}
			}
		}
	}
}

// TestAddressDecodeMatchesReference checks the one-division decode
// (partitionOf, dramAddr) against the original per-field formulas on
// K20m and on other geometries that config.Validate accepts.
func TestAddressDecodeMatchesReference(t *testing.T) {
	geoms := []struct {
		mcs, partsPerMC, banks int
		rowBytes               kernel.Bytes
	}{
		{6, 2, 8, 2048}, // K20m
		{8, 2, 16, 2048},
		{3, 2, 8, 4096},
		{5, 3, 6, 1024},
		{4, 4, 4, 64}, // a row narrower than a line
		{1, 1, 1, 128},
	}
	for _, g := range geoms {
		cfg := testCfg()
		cfg.MemControllers, cfg.PartitionsPerMC, cfg.BanksPerMC, cfg.RowBytes = g.mcs, g.partsPerMC, g.banks, g.rowBytes
		cfg.L2Partitions = g.mcs * g.partsPerMC
		if err := cfg.Validate(); err != nil {
			t.Fatalf("%+v: %v", g, err)
		}
		h := NewHierarchy(cfg)
		parts := uint64(cfg.L2Partitions)
		linesPerRow := uint64(cfg.RowBytes / cfg.CacheLineBytes)
		if linesPerRow == 0 {
			linesPerRow = 1
		}
		rng := rand.New(rand.NewSource(int64(cfg.L2Partitions)))
		for i := 0; i < 20000; i++ {
			line := uint64(i)
			if i%2 == 1 {
				line = uint64(rng.Int63n(1 << 50))
			}
			wantP := int(line % parts)
			wantBank := wantP/cfg.PartitionsPerMC*cfg.BanksPerMC + int(line/parts%uint64(cfg.BanksPerMC))
			wantRow := line / parts / uint64(cfg.BanksPerMC) / linesPerRow
			p, q := h.partitionOf(line)
			bank, row := h.dramAddr(p, q)
			if p != wantP || bank != wantBank || row != wantRow {
				t.Fatalf("%+v line %d: partition/bank/row %d/%d/%d, want %d/%d/%d",
					g, line, p, bank, row, wantP, wantBank, wantRow)
			}
		}
	}
}

package mem

import (
	"math/rand"
	"testing"

	"spawnsim/internal/config"
	"spawnsim/internal/sim/kernel"
)

// streamLen is the number of transactions one benchmark op replays.
const streamLen = 4096

// lineStream returns a seeded stream of streamLen lines drawn uniformly
// from [0, span).
func lineStream(seed int64, span uint64) []uint64 {
	rng := rand.New(rand.NewSource(seed))
	out := make([]uint64, streamLen)
	for i := range out {
		out[i] = uint64(rng.Int63n(int64(span)))
	}
	return out
}

// BenchmarkCacheAccess times Cache.Access on the K20m L1 and L2 slice
// geometries. The hit-heavy stream cycles over half the cache's lines,
// so after the first op every access hits; the miss-heavy stream draws
// from 2^24 lines, so nearly every access misses and picks a victim.
func BenchmarkCacheAccess(b *testing.B) {
	cfg := config.K20m()
	geoms := []struct {
		name  string
		bytes kernel.Bytes
		ways  int
	}{
		{"L1", cfg.L1Bytes, cfg.L1Ways},
		{"L2", cfg.L2PartitionBytes, cfg.L2Ways},
	}
	for _, g := range geoms {
		lines := uint64(g.bytes / cfg.CacheLineBytes)
		streams := []struct {
			name  string
			lines []uint64
		}{
			{"hit-heavy", lineStream(1, lines/2)},
			{"miss-heavy", lineStream(2, 1<<24)},
		}
		for _, s := range streams {
			b.Run(g.name+"/"+s.name, func(b *testing.B) {
				c := NewCache(g.bytes, g.ways, cfg.CacheLineBytes)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					for _, line := range s.lines {
						c.Access(line)
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*streamLen), "ns/txn")
			})
		}
	}
}

// BenchmarkHierarchyAccess times Hierarchy.Access on the K20m memory
// system with seeded 32-lane warps over a 64 MB footprint: half are
// fully coalesced (consecutive words, one line), half scatter every lane
// to its own line. ns/txn divides by the coalesced line transactions.
func BenchmarkHierarchyAccess(b *testing.B) {
	cfg := config.K20m()
	const warps, lanes, footprint = 512, 32, 64 << 20
	rng := rand.New(rand.NewSource(3))
	addrs := make([][]uint64, warps)
	for w := range addrs {
		addrs[w] = make([]uint64, lanes)
		base := uint64(rng.Int63n(footprint))
		for l := range addrs[w] {
			if w%2 == 0 {
				addrs[w][l] = base&^127 + uint64(4*l)
			} else {
				addrs[w][l] = uint64(rng.Int63n(footprint))
			}
		}
	}
	h := NewHierarchy(cfg)
	b.ReportAllocs()
	b.ResetTimer()
	var now kernel.Cycle
	for i := 0; i < b.N; i++ {
		for w, a := range addrs {
			h.Access(now, w%cfg.NumSMX, a)
			now += 4
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(h.Transactions), "ns/txn")
}

// Package workload implements the benchmark load generators: the
// redis-benchmark-equivalent closed-loop clients the paper's evaluation
// uses ("each client issues queries as quickly as possible"), plus key and
// value generators with uniform or Zipfian key popularity.
package workload

import (
	"fmt"
	"math/rand"

	"skv/internal/resp"
)

// Op is the command a generator emits.
type Op int

// Operation kinds.
const (
	OpSet Op = iota
	OpGet
)

// Generator produces commands for one client.
type Generator struct {
	rnd *rand.Rand
	// KeySpace is the number of distinct keys.
	KeySpace int
	// ValueSize is the SET payload size in bytes.
	ValueSize int
	// SetRatio is the fraction of SETs (1.0 = pure SET, 0.0 = pure GET).
	SetRatio float64
	// Zipf enables a Zipfian key distribution instead of uniform.
	Zipf bool

	zipf  *rand.Zipf
	value []byte
}

// DefaultZipfS is the Zipfian skew exponent used when none is given — the
// value the evaluation has always used.
const DefaultZipfS = 1.1

// NewGenerator creates a generator with deterministic randomness and the
// default Zipfian skew.
func NewGenerator(seed int64, keySpace, valueSize int, setRatio float64, zipfian bool) *Generator {
	return NewGeneratorSkew(seed, keySpace, valueSize, setRatio, zipfian, DefaultZipfS)
}

// NewGeneratorSkew is NewGenerator with an explicit Zipfian skew exponent s
// (must be > 1; ignored for uniform distributions). The same seed and
// s = DefaultZipfS reproduce NewGenerator's stream bit-for-bit.
func NewGeneratorSkew(seed int64, keySpace, valueSize int, setRatio float64, zipfian bool, s float64) *Generator {
	rnd := rand.New(rand.NewSource(seed))
	g := &Generator{
		rnd:       rnd,
		KeySpace:  keySpace,
		ValueSize: valueSize,
		SetRatio:  setRatio,
		Zipf:      zipfian,
	}
	if zipfian {
		g.zipf = rand.NewZipf(rnd, s, 1, uint64(keySpace-1))
	}
	g.value = make([]byte, valueSize)
	for i := range g.value {
		g.value[i] = 'a' + byte(i%26)
	}
	return g
}

func (g *Generator) key() string {
	var k uint64
	if g.Zipf {
		k = g.zipf.Uint64()
	} else {
		k = uint64(g.rnd.Intn(g.KeySpace))
	}
	return fmt.Sprintf("key:%010d", k)
}

// Next produces the next encoded command and its kind.
func (g *Generator) Next() ([]byte, Op) {
	cmd, op, _ := g.NextKeyed()
	return cmd, op
}

// NextKeyed is Next plus the key the command targets, for routing layers
// (slot-aware clients) that must know where a command goes. It draws from
// the same RNG stream as Next — interleaving the two is safe.
func (g *Generator) NextKeyed() ([]byte, Op, string) {
	if g.rnd.Float64() < g.SetRatio {
		k := g.key()
		return resp.EncodeCommandBytes([]byte("SET"), []byte(k), g.value), OpSet, k
	}
	k := g.key()
	return resp.EncodeCommandBytes([]byte("GET"), []byte(k)), OpGet, k
}

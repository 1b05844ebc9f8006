package main

import (
	"bytes"
	"math/rand"
	"runtime"
	"strconv"
	"sync"
	"time"
)

// The reference box shares its physical cores with other tenants. While
// a neighbour is busy, throughput-bound code here runs up to three times
// slower, in episodes of seconds to minutes, yet steal time stays near
// 1 % and a latency-bound loop keeps its speed (README.md,
// "Calibration"). A raw wall time therefore moves with the neighbours as
// much as with the program. So the benchmark brackets every operation an
// end-to-end timing rests on with calibration rounds, a fixed kernel of
// this directory's own code run on every CPU at once, and divides the
// operation's wall time by its slowdown: the mean round on either side
// of it over calNominal. No change to the program can move the kernel.

const (
	// calNominal is one round's wall time on the reference box while no
	// neighbour interferes, so corrected timings read as quiet ones.
	calNominal = 15 * time.Millisecond
	// calRounds is how many rounds one bracket measures: 0.12 s or more,
	// long enough to average over the host's sub-second fluctuations.
	calRounds = 8

	calRows, calDim, calK = 16000, 8, 15
	calCSVRows            = 32000
)

// calibration holds the kernel's fixed inputs and the mean round of the
// latest bracket.
type calibration struct {
	rows  []float64 // calRows × calDim, row-major
	cents []float64 // calK × calDim
	csv   []byte    // calCSVRows lines of calDim numbers
	last  time.Duration
	sink  float64
}

func newCalibration() *calibration {
	rng := rand.New(rand.NewSource(1))
	c := &calibration{
		rows:  make([]float64, calRows*calDim),
		cents: make([]float64, calK*calDim),
	}
	for i := range c.rows {
		c.rows[i] = rng.Float64()
	}
	for i := range c.cents {
		c.cents[i] = rng.Float64()
	}
	for i := 0; i < calCSVRows; i++ {
		for j := 0; j < calDim; j++ {
			if j > 0 {
				c.csv = append(c.csv, ',')
			}
			if j%2 == 0 {
				c.csv = strconv.AppendInt(c.csv, rng.Int63n(100000), 10)
			} else {
				c.csv = strconv.AppendFloat(c.csv, rng.Float64()*1000, 'f', 2, 64)
			}
		}
		c.csv = append(c.csv, '\n')
	}
	return c
}

// kernel is one CPU's share of a round: a nearest-centroid pass, the
// arithmetic of the engine and the scorer, then splitting and parsing
// 1.6 MB of CSV text, byte scanning and decimal parsing as the stream
// reader and the JSON decoder do. It allocates nothing, so the garbage
// collector, whose pace depends on the program's heap, stays out of it.
func (c *calibration) kernel() float64 {
	var s float64
	for i := 0; i < len(c.rows); i += calDim {
		x := c.rows[i : i+calDim]
		best, arg := 1e300, 0
		for j := 0; j < len(c.cents); j += calDim {
			ctr := c.cents[j : j+calDim]
			var d float64
			for k, v := range x {
				t := v - ctr[k]
				d += t * t
			}
			if d < best {
				best, arg = d, j
			}
		}
		s += float64(arg)
	}
	for b := c.csv; len(b) > 0; {
		end := bytes.IndexByte(b, '\n')
		line := b[:end]
		b = b[end+1:]
		for len(line) > 0 {
			f := line
			if k := bytes.IndexByte(line, ','); k >= 0 {
				f, line = line[:k], line[k+1:]
			} else {
				line = nil
			}
			v, _ := strconv.ParseFloat(string(f), 64)
			s += v
		}
	}
	return s
}

// round runs the kernel on every CPU at once and returns the wall time.
func (c *calibration) round() time.Duration {
	sums := make([]float64, runtime.GOMAXPROCS(0))
	var wg sync.WaitGroup
	t0 := time.Now()
	for i := range sums {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sums[i] = c.kernel()
		}(i)
	}
	wg.Wait()
	d := time.Since(t0)
	for _, s := range sums {
		c.sink += s
	}
	return d
}

// bracket measures calRounds rounds and records their mean.
func (c *calibration) bracket() {
	var total time.Duration
	for i := 0; i < calRounds; i++ {
		total += c.round()
	}
	c.last = total / calRounds
}

// time runs op between two brackets and returns its wall time and its
// slowdown: the mean round of the brackets on either side over
// calNominal. The bracket after one operation is the one before the
// next. Divide a time by the slowdown, or multiply a rate by it, to
// correct it to the reference box's quiet speed.
func (c *calibration) time(op func() error) (wall time.Duration, slow float64, err error) {
	if c.last == 0 {
		c.bracket()
	}
	before := c.last
	t0 := time.Now()
	err = op()
	wall = time.Since(t0)
	c.bracket()
	return wall, float64(before+c.last) / 2 / float64(calNominal), err
}

package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"
)

// The host this benchmark runs on lends its vCPUs from a shared
// machine, whose other tenants change how fast the same code runs by up
// to a factor of two over minutes, memory-bound code most. A run
// therefore samples a fixed calibration kernel, run as a child process
// like the cafa binaries, between stretches of measured work, and
// reports every time in reference time: the wall time multiplied by
// kernelNominal over the run's median kernel sample. One factor per
// run follows the drift from run to run without adding the noise of
// single kernel samples to single measurements. The kernel is the
// benchmark's own code, so a change to cafa cannot move it; a change
// that makes cafa faster or slower moves the reference time as much as
// the wall time.

// calibrateArg makes this binary run the calibration kernel once and
// exit.
const calibrateArg = "-calibrate"

// kernelNominal is about the kernel's wall time, process start
// included, on the reference host (2 vCPUs of a shared Intel Xeon VM)
// when its neighbours are quiet; it took 50 to 140 ms there as they
// came and went. Reference times are wall times on a host of the quiet
// speed.
const kernelNominal = 50 * time.Millisecond

// segment is the most measured work between two kernel samples, give
// or take the job that crosses it.
const segment = 2 * time.Second

// calibrator samples the kernel between stretches of measured work.
type calibrator struct {
	ctx     context.Context
	dir     string
	samples []time.Duration
	err     error // the first kernel failure
}

// newCalibrator takes the run's first kernel sample.
func newCalibrator(ctx context.Context, dir string) (*calibrator, error) {
	c := &calibrator{ctx: ctx, dir: dir}
	c.mark()
	return c, c.err
}

// mark takes one kernel sample. A failure is kept in c.err, which the
// run reports; later marks do nothing.
func (c *calibrator) mark() {
	if c.err != nil {
		return
	}
	k, err := c.kernel()
	if err != nil {
		c.err = err
		return
	}
	c.samples = append(c.samples, k)
}

// factor converts the run's wall times into reference time.
func (c *calibrator) factor() float64 {
	return float64(kernelNominal) / float64(c.medianSample())
}

// kernel runs the calibration kernel in a child and returns its wall
// time.
func (c *calibrator) kernel() (time.Duration, error) {
	self, err := os.Executable()
	if err != nil {
		return 0, err
	}
	var stderr bytes.Buffer
	l, err := launch(c.ctx, self, c.dir, nil, &stderr, calibrateArg)
	if err != nil {
		return 0, fmt.Errorf("calibration kernel: %w", err)
	}
	wall, _, err := l.wait()
	if err != nil {
		return 0, fmt.Errorf("calibration kernel: %w: %s", err, strings.TrimSpace(stderr.String()))
	}
	return wall, nil
}

// medianSample is the median kernel sample of the run.
func (c *calibrator) medianSample() time.Duration {
	s := append([]time.Duration(nil), c.samples...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s[len(s)/2]
}

// scale converts a wall time into reference time.
func scale(d time.Duration, f float64) time.Duration {
	return time.Duration(float64(d) * f)
}

// kernelSink keeps the kernel's results alive.
var kernelSink uint64

// runKernel is the calibration kernel: a fixed mix of the work cafa
// spends its time on, on fresh memory. A dense bit-matrix closure over
// a random DAG streams 32 MiB of rows as the hb closure does; a varint
// encode and decode of 1M values parses bytes as the trace decoder
// does; a map of growing slices churns small objects as the lockset
// and detection passes do.
func runKernel() {
	x := uint64(88172645463325252)
	next := func() uint64 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return x
	}

	const n, w = 16384, 16384 / 64
	rows := make([]uint64, n*w)
	for i := 0; i < n; i++ {
		rows[i*w+i/64] |= 1 << (i % 64)
		for k := 0; k < 3 && i > 0; k++ {
			j := int(next() % uint64(i))
			ri, rj := rows[i*w:(i+1)*w], rows[j*w:(j+1)*w]
			for t := range ri {
				ri[t] |= rj[t]
			}
		}
	}

	buf := make([]byte, 0, 8<<20)
	for i := 0; i < 1<<20; i++ {
		v := next() >> (next() % 64)
		for v >= 0x80 {
			buf = append(buf, byte(v)|0x80)
			v >>= 7
		}
		buf = append(buf, byte(v))
	}
	var sum uint64
	for i := 0; i < len(buf); {
		var v uint64
		var sh uint
		for buf[i] >= 0x80 {
			v |= uint64(buf[i]&0x7f) << sh
			sh += 7
			i++
		}
		v |= uint64(buf[i]) << sh
		i++
		sum += v
	}

	m := make(map[uint64][]uint32)
	for i := 0; i < 1<<17; i++ {
		k := next() % 4096
		m[k] = append(m[k], uint32(i))
	}
	kernelSink = sum + rows[len(rows)/2] + uint64(len(m))
}

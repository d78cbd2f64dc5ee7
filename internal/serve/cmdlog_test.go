package serve

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/frac"
)

// checkCmdLog appends cmds to a fresh log and requires from(i) to give
// back exactly cmds[i:] for every i in [0, len], mark boundaries
// included.
func checkCmdLog(t *testing.T, cmds []core.Command) {
	t.Helper()
	var l cmdLog
	for _, c := range cmds {
		l.append(c)
	}
	if l.len() != len(cmds) {
		t.Fatalf("len %d after %d appends", l.len(), len(cmds))
	}
	for i := 0; i <= len(cmds); i++ {
		// == on Commands, not reflect.DeepEqual: the fuzzer checks every
		// cut of up to 160 records.
		if got := l.from(i); got == nil || !slices.Equal(got, cmds[i:]) {
			t.Fatalf("from(%d) of %d:\n got %v\nwant %v", i, len(cmds), got, cmds[i:])
		}
	}
}

// TestCmdLogRoundTrip covers every op and the edges of each field: the
// zero-value weight and 0/1, negative and int64-scale weights, Arg at
// both int64 extremes, empty and non-ASCII names and groups, and At
// steps of 0, of 2³² and more, and backwards across the int64 range;
// then the weight table past its size and the same-At flag across
// marks.
func TestCmdLogRoundTrip(t *testing.T) {
	weights := []frac.Rat{
		{},
		frac.Zero,
		frac.New(1, 64),
		frac.New(-3, 7),
		frac.New(math.MaxInt64, math.MaxInt64-1),
		frac.New(-math.MaxInt64, 3),
		frac.New(1, math.MaxInt64),
		frac.FromInt(math.MinInt64),
		frac.FromInt(math.MaxInt64),
	}
	names := []string{"T0", "", "Überlast-π", "タスク", "T0"}
	groups := []string{"", "g", "グループ", ""}
	args := []int64{0, 1, -1, math.MinInt64, math.MaxInt64}
	steps := []int64{0, 0, 1, 1 << 32, 0, 1<<40 + 7, -5, math.MaxInt64, math.MinInt64}
	var (
		cmds []core.Command
		at   int64
	)
	for i := 0; i < 3*logMarkEvery+5; i++ {
		at += steps[i%len(steps)]
		cmds = append(cmds, core.Command{
			At:     at,
			Op:     core.CommandOp(i % 5),
			Task:   names[i%len(names)],
			Weight: weights[i%len(weights)],
			Group:  groups[i%len(groups)],
			Arg:    args[i%len(args)],
		})
	}
	for n := 0; n <= len(cmds); n++ {
		checkCmdLog(t, cmds[:n])
	}

	// The tables: 300 distinct weights, of which only the first
	// logWeights are tabled, runs of one At longer than a mark's span,
	// and At steps at, just before and just after mark boundaries.
	cmds, at = nil, 0
	for i := 0; i < 300; i++ {
		cmds = append(cmds, core.Command{At: at, Op: core.OpReweight, Task: fmt.Sprintf("t%d", i%7), Weight: frac.New(int64(i+1), 997)})
		if i%100 == 99 {
			at++ // runs of 100 records at one At
		}
	}
	for i := 0; i < 4*logMarkEvery; i++ {
		if k := i % logMarkEvery; k == 0 || k == 1 || k == logMarkEvery-1 {
			at += int64(i) - 50 // steps crossing mark boundaries, some backwards
		}
		cmds = append(cmds, core.Command{At: at, Op: core.CommandOp(i % 5), Task: "u", Weight: frac.New(int64(i%300+1), 997), Arg: int64(i % 3)})
	}
	checkCmdLog(t, cmds)

	var l cmdLog
	for _, c := range cmds {
		l.append(c)
	}
	if len(l.weights) != logWeights {
		t.Fatalf("weight table holds %d weights, want %d", len(l.weights), logWeights)
	}
	for i, w := range l.weights {
		if want := frac.New(int64(i+1), 997); w != want {
			t.Fatalf("weight table[%d] = %v, want %v (order of first use)", i, w, want)
		}
	}
	if got, want := len(l.markOff), (len(cmds)+logMarkEvery-1)/logMarkEvery; got != want || len(l.markAt) != want {
		t.Fatalf("%d and %d marks for %d records, want %d", got, len(l.markAt), len(cmds), want)
	}
}

// TestCmdLogReweightIsThreeBytes pins the record size the log exists
// for: a same-slot reweight to a tabled weight on a 64-task shard is
// one head byte, one name index and one weight index. A weight past
// the table is written inline, as before the table.
func TestCmdLogReweightIsThreeBytes(t *testing.T) {
	var l cmdLog
	for i := 0; i < 64; i++ {
		l.append(core.Command{Op: core.OpJoin, Task: fmt.Sprintf("t%d", i), Weight: frac.New(1, 64)})
	}
	size := func(c core.Command) int {
		before := len(l.buf)
		l.append(c)
		return len(l.buf) - before
	}
	if got := size(core.Command{Op: core.OpReweight, Task: "t63", Weight: frac.New(3, 64)}); got != 3 {
		t.Fatalf("reweight record is %d bytes, want 3", got)
	}
	if got := size(core.Command{At: 1, Op: core.OpReweight, Task: "t0", Weight: frac.New(1, 64)}); got != 4 {
		t.Fatalf("next slot's first reweight is %d bytes, want 4 (with its At step)", got)
	}
	for i := len(l.weights); i < logWeights; i++ {
		l.append(core.Command{At: 1, Op: core.OpReweight, Task: "t1", Weight: frac.New(int64(i), 1000)})
	}
	if got := size(core.Command{At: 1, Op: core.OpReweight, Task: "t2", Weight: frac.New(3, 64)}); got != 3 {
		t.Fatalf("reweight to a tabled weight after the table filled is %d bytes, want 3", got)
	}
	if got := size(core.Command{At: 1, Op: core.OpReweight, Task: "t2", Weight: frac.New(5, 64)}); got != 4 {
		t.Fatalf("reweight to an untabled weight is %d bytes, want 4 (num and den inline)", got)
	}
}

// fuzzCommands decodes fuzz input into at most 5 marks' worth of
// commands (checkCmdLog is quadratic), enough to fill the weight table
// and overflow it. Per command, one byte picks the
// op (mod 5), which of weight, group and Arg are set, and whether At
// and the weight's num and den are full int64s or one byte each (a
// full-width weight costs its gcd on every decode, so most stay small);
// each int64 reads eight bytes and each name a length byte (mod 8) and
// that many bytes, with zeros past the end of the input.
func fuzzCommands(data []byte) []core.Command {
	take := func(n int) []byte {
		b := make([]byte, n)
		data = data[copy(b, data):]
		return b
	}
	i64 := func() int64 { return int64(binary.LittleEndian.Uint64(take(8))) }
	str := func() string { return string(take(int(take(1)[0] % 8))) }
	var (
		cmds []core.Command
		at   int64
	)
	for len(data) > 0 && len(cmds) < 5*logMarkEvery {
		head := take(1)[0]
		if head&0x40 != 0 {
			at += i64()
		} else {
			at += int64(int8(take(1)[0]))
		}
		c := core.Command{At: at, Op: core.CommandOp((head & 7) % 5), Task: str()}
		if head&recWeight != 0 {
			var num, den int64
			if head&0x80 != 0 {
				num, den = i64(), int64(uint64(i64())>>1)
			} else {
				num, den = int64(int8(take(1)[0])), int64(take(1)[0])
			}
			if den <= 1 || num == math.MinInt64 {
				c.Weight = frac.FromInt(num)
			} else {
				c.Weight = frac.New(num, den)
			}
		}
		if head&recGroup != 0 {
			c.Group = str()
		}
		if head&recArg != 0 {
			c.Arg = i64()
		}
		cmds = append(cmds, c)
	}
	return cmds
}

func FuzzCmdLog(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x0a, 0, 2, 't', '0', 1, 64})
	f.Add([]byte{0xfc, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f, 3, 0xe3, 0x81, 0x82})
	// The weight table and the marks: 150 distinct weights (the table
	// takes the first 128), a run of one At across three marks, and
	// full-width At steps on the records either side of each mark.
	var overflow, run, steps []byte
	for i := 0; i < 150; i++ {
		overflow = append(overflow, recWeight, 0, 1, 't', byte(int8(i-75)), 251)
	}
	for i := 0; i < 100; i++ {
		run = append(run, byte(core.OpReweight)|recWeight, 0, 1, byte('a'+i%3), byte(1+i%2), 64)
	}
	for i := 0; i < 4*logMarkEvery; i++ {
		if k := i % logMarkEvery; k == 0 || k == logMarkEvery-1 {
			steps = binary.LittleEndian.AppendUint64(append(steps, 0x40|byte(core.OpReweight)|recWeight), uint64(int64(i)<<40-1))
		} else {
			steps = append(steps, byte(core.OpReweight)|recWeight, 0)
		}
		steps = append(steps, 1, 'u', 1, 64)
	}
	f.Add(overflow)
	f.Add(run)
	f.Add(steps)
	f.Fuzz(func(t *testing.T, data []byte) {
		checkCmdLog(t, fuzzCommands(data))
	})
}

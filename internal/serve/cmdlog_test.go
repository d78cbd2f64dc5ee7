package serve

import (
	"encoding/binary"
	"fmt"
	"math"
	"reflect"
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
		want := append([]core.Command{}, cmds[i:]...) // from never returns nil
		if got := l.from(i); !reflect.DeepEqual(got, want) {
			t.Fatalf("from(%d) of %d:\n got %v\nwant %v", i, len(cmds), got, want)
		}
	}
}

// TestCmdLogRoundTrip covers every op and the edges of each field: the
// zero-value weight and 0/1, negative and int64-scale weights, Arg at
// both int64 extremes, empty and non-ASCII names and groups, and At
// steps of 0, of 2³² and more, and backwards across the int64 range.
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
}

// TestCmdLogReweightIsFiveBytes pins the record size the log exists
// for: a same-slot reweight on a 64-task shard is one head byte, one At
// step, one name index and one byte each for num and den.
func TestCmdLogReweightIsFiveBytes(t *testing.T) {
	var l cmdLog
	for i := 0; i < 64; i++ {
		l.append(core.Command{Op: core.OpJoin, Task: fmt.Sprintf("t%d", i), Weight: frac.New(1, 64)})
	}
	before := len(l.buf)
	l.append(core.Command{Op: core.OpReweight, Task: "t63", Weight: frac.New(3, 64)})
	if got := len(l.buf) - before; got != 5 {
		t.Fatalf("reweight record is %d bytes, want 5", got)
	}
}

// fuzzCommands decodes fuzz input into at most 4 marks' worth of
// commands (checkCmdLog is quadratic). Per command, one byte picks the
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
	for len(data) > 0 && len(cmds) < 4*logMarkEvery {
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
	f.Fuzz(func(t *testing.T, data []byte) {
		checkCmdLog(t, fuzzCommands(data))
	})
}

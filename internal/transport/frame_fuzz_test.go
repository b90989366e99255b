package transport

import (
	"bytes"
	"net"
	"testing"
)

// fuzzMaxPacket is the frame bound of FuzzDaemonFrame's daemon: small, so
// that generated inputs reach the oversize path.
const fuzzMaxPacket = 512

// frameCounts is what a reader bounded by max must make of data: the
// non-blank lines it decodes (each a FramesIn or a DecodeDrops), up to the
// first line of max bytes or more, which ends the connection as one
// OversizeDrops — bufio.Scanner's limit counts the line's bytes before its
// '\n', a trailing '\r' included.
func frameCounts(data []byte, max int) (frames, oversize int64) {
	for len(data) > 0 {
		line := data
		data = nil
		if i := bytes.IndexByte(line, '\n'); i >= 0 {
			line, data = line[:i], line[i+1:]
		}
		if len(line) >= max {
			return frames, 1
		}
		if len(bytes.TrimSpace(line)) > 0 {
			frames++
		}
	}
	return frames, 0
}

// FuzzDaemonFrame feeds arbitrary bytes to a daemon's readLoop over
// net.Pipe. The reader must never panic, and every non-blank frame it reads
// must land in exactly one of FramesIn, DecodeDrops and OversizeDrops. The
// committed corpus (testdata/fuzz/FuzzDaemonFrame) holds a valid frame and
// truncated, oversize, wrong-kind, out-of-range-from and blank/CRLF inputs.
func FuzzDaemonFrame(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		clk := &fakeClock{}
		d, err := newDaemon(DaemonConfig{Nodes: 1, maxPacket: fuzzMaxPacket}, clk.Now)
		if err != nil {
			t.Fatal(err)
		}
		defer d.Close()
		server, client := net.Pipe()
		wrote := make(chan struct{})
		go func() {
			defer close(wrote)
			// The reader closes its end on an oversize frame, which
			// fails the write.
			_, _ = client.Write(data)
			_ = client.Close()
		}()
		d.wg.Add(1)
		d.readLoop(0, server)
		<-wrote

		frames, oversize := frameCounts(data, fuzzMaxPacket)
		in, bad, big := d.met.FramesIn.Load(), d.met.DecodeDrops.Load(), d.met.OversizeDrops.Load()
		if in+bad != frames || big != oversize {
			t.Fatalf("%d frames (oversize %d) counted as FramesIn %d + DecodeDrops %d, OversizeDrops %d",
				frames, oversize, in, bad, big)
		}
		if got := d.met.Delivered.Load() + d.met.Deduped.Load() + d.met.MailboxDrops.Load(); got != in {
			t.Fatalf("%d frames decoded, %d reached a terminal bucket", in, got)
		}
	})
}

package fabric

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"strings"
	"testing"

	"clustersim/internal/core"
)

func TestWireRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	msgs := []Msg{
		{Type: MsgHello, Worker: "w1"},
		{Type: MsgAssign, Lease: 7, Point: &PointSpec{
			App: "barnes", Size: "small", ClusterSize: 4, CacheKB: 16,
			Procs: 16, ConfigHash: "abc123"}},
		{Type: MsgResult, Worker: "w1", Lease: 7, Resumed: true,
			Result: &core.Result{ExecTime: 42}},
		{Type: MsgResult, Worker: "w1", Lease: 8, Error: "panic: boom"},
		{Type: MsgDrain, Detail: "sweep complete"},
	}
	for _, m := range msgs {
		if err := WriteMsg(&buf, m); err != nil {
			t.Fatalf("WriteMsg(%s): %v", m.Type, err)
		}
	}
	r := bufio.NewReader(&buf)
	for i, want := range msgs {
		got, err := ReadMsg(r)
		if err != nil {
			t.Fatalf("ReadMsg #%d: %v", i, err)
		}
		if got.V != ProtoV1 {
			t.Errorf("msg %d: version %q, want %q", i, got.V, ProtoV1)
		}
		if got.Type != want.Type || got.Worker != want.Worker || got.Lease != want.Lease ||
			got.Error != want.Error || got.Resumed != want.Resumed || got.Detail != want.Detail {
			t.Errorf("msg %d: got %+v, want %+v", i, got, want)
		}
		if (got.Point == nil) != (want.Point == nil) {
			t.Errorf("msg %d: Point presence mismatch", i)
		} else if want.Point != nil && *got.Point != *want.Point {
			t.Errorf("msg %d: Point = %+v, want %+v", i, *got.Point, *want.Point)
		}
	}
	if _, err := ReadMsg(r); err != io.EOF {
		t.Errorf("after last frame: err = %v, want io.EOF", err)
	}
}

func TestWireRejectsGarbage(t *testing.T) {
	cases := map[string]string{
		"junk header":    "not-a-number\n{}\n",
		"negative":       "-5\n{}\n",
		"oversize":       fmt.Sprintf("%d\n", MaxFrame+1),
		"truncated body": "100\n{\"v\":\"x\"}\n",
		"bad json":       "5\n{{{{{\n",
	}
	for name, in := range cases {
		if _, err := ReadMsg(bufio.NewReader(strings.NewReader(in))); err == nil || err == io.EOF {
			t.Errorf("%s: err = %v, want a protocol error", name, err)
		}
	}
}

func TestWireRejectsVersionSkew(t *testing.T) {
	payload := `{"v":"clustersim/fabric/v0","type":"hello"}`
	in := fmt.Sprintf("%d\n%s\n", len(payload), payload)
	_, err := ReadMsg(bufio.NewReader(strings.NewReader(in)))
	if err == nil || !strings.Contains(err.Error(), "version skew") {
		t.Fatalf("err = %v, want a version-skew error", err)
	}
}

// TestWireDecodesOlderPeerFields pins compatibility with v1 peers that
// still send the trace, obsAddr and spans fields this build dropped:
// their frames decode, and every field this build knows survives.
func TestWireDecodesOlderPeerFields(t *testing.T) {
	span := map[string]any{"schema": "clustersim/events/v1", "seq": 1, "wallUnixNs": 5,
		"kind": "point-done", "point": "fft-c1-inf", "trace": "0123456789abcdef"}
	frames := []map[string]any{
		{"v": ProtoV1, "type": MsgHello, "worker": "w1", "obsAddr": "http://10.0.0.7:9091"},
		{"v": ProtoV1, "type": MsgAssign, "lease": 3, "trace": "0123456789abcdef",
			"point": PointSpec{App: "fft", Size: "test", ClusterSize: 1, Procs: 16, ConfigHash: "h"}},
		{"v": ProtoV1, "type": MsgHeartbeat, "worker": "w1", "spans": []any{span}},
		{"v": ProtoV1, "type": MsgResult, "worker": "w1", "lease": 3, "wallNs": 7,
			"result": &core.Result{ExecTime: 42}, "spans": []any{span}},
	}
	var buf bytes.Buffer
	for _, f := range frames {
		payload, err := json.Marshal(f)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&buf, "%d\n%s\n", len(payload), payload)
	}
	r := bufio.NewReader(&buf)
	var got []Msg
	for range frames {
		m, err := ReadMsg(r)
		if err != nil {
			t.Fatalf("ReadMsg #%d: %v", len(got), err)
		}
		got = append(got, m)
	}
	if got[0].Type != MsgHello || got[0].Worker != "w1" {
		t.Errorf("hello = %+v", got[0])
	}
	if got[1].Type != MsgAssign || got[1].Lease != 3 || got[1].Point == nil || got[1].Point.Name() != "fft-c1-inf" {
		t.Errorf("assign = %+v", got[1])
	}
	if got[2].Type != MsgHeartbeat || got[2].Worker != "w1" {
		t.Errorf("heartbeat = %+v", got[2])
	}
	if m := got[3]; m.Type != MsgResult || m.Lease != 3 || m.WallNS != 7 || m.Result == nil || m.Result.ExecTime != 42 {
		t.Errorf("result = %+v", m)
	}
}

// TestWireTCP pushes the protocol through a real socket: the transport
// the fleet actually uses, not just the in-memory pipes.
func TestWireTCP(t *testing.T) {
	l, err := Listen("127.0.0.1:0")
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	defer l.Close()
	done := make(chan error, 1)
	go func() { //simlint:allow goroutine — test harness
		conn, err := l.Accept()
		if err != nil {
			done <- err
			return
		}
		defer conn.Close()
		m, err := conn.Recv()
		if err != nil {
			done <- err
			return
		}
		done <- conn.Send(Msg{Type: MsgAssign, Lease: 1, Point: &PointSpec{App: m.Worker}})
	}()
	c, err := Dial(l.Addr())
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer c.Close()
	if err := c.Send(Msg{Type: MsgHello, Worker: "w-tcp"}); err != nil {
		t.Fatalf("Send: %v", err)
	}
	m, err := c.Recv()
	if err != nil {
		t.Fatalf("Recv: %v", err)
	}
	if m.Type != MsgAssign || m.Point == nil || m.Point.App != "w-tcp" {
		t.Fatalf("echo = %+v, want assign with App=w-tcp", m)
	}
	if err := <-done; err != nil {
		t.Fatalf("server side: %v", err)
	}
}

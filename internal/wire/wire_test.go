package wire

import (
	"bytes"
	"reflect"
	"testing"
	"testing/quick"

	"ccpfs/internal/extent"
)

func roundTrip(t *testing.T, in Msg, out Msg) {
	t.Helper()
	frame := Marshal(in)
	if err := Unmarshal(frame, out); err != nil {
		t.Fatalf("Unmarshal(%T): %v", in, err)
	}
}

func TestEncoderDecoderPrimitives(t *testing.T) {
	e := NewEncoder(0)
	e.U8(200)
	e.U32(1 << 30)
	e.U64(1 << 60)
	e.I64(-42)
	e.Bool(true)
	e.Bool(false)
	e.Bytes32([]byte{1, 2, 3})
	e.String("héllo")

	d := NewDecoder(e.Bytes())
	if d.U8() != 200 || d.U32() != 1<<30 || d.U64() != 1<<60 || d.I64() != -42 {
		t.Fatal("numeric round trip failed")
	}
	if !d.Bool() || d.Bool() {
		t.Fatal("bool round trip failed")
	}
	if !bytes.Equal(d.Bytes32(), []byte{1, 2, 3}) {
		t.Fatal("bytes round trip failed")
	}
	if d.String() != "héllo" {
		t.Fatal("string round trip failed")
	}
	if err := d.Finish(); err != nil {
		t.Fatal(err)
	}
}

func TestDecoderTruncated(t *testing.T) {
	d := NewDecoder([]byte{1, 2})
	d.U64()
	if d.Err() != ErrTruncated {
		t.Fatalf("err = %v, want ErrTruncated", d.Err())
	}
	// Sticky: subsequent reads keep failing without panicking.
	d.U32()
	_ = d.String()
	if d.Err() != ErrTruncated {
		t.Fatal("error not sticky")
	}
}

func TestDecoderTrailingBytes(t *testing.T) {
	d := NewDecoder([]byte{1, 2, 3})
	d.U8()
	if err := d.Finish(); err == nil {
		t.Fatal("Finish accepted trailing bytes")
	}
}

func TestDecoderHostileLength(t *testing.T) {
	// A frame declaring a 4 G-element collection must not allocate it.
	e := NewEncoder(0)
	e.U32(0xFFFFFFFF)
	d := NewDecoder(e.Bytes())
	if n := d.Len32(8); n != 0 || d.Err() == nil {
		t.Fatalf("Len32 = %d, err = %v; want rejection", n, d.Err())
	}
	// Same for Bytes32.
	d2 := NewDecoder(e.Bytes())
	if b := d2.Bytes32(); b != nil || d2.Err() == nil {
		t.Fatal("Bytes32 accepted hostile length")
	}
}

func TestLockRequestRoundTrip(t *testing.T) {
	in := &LockRequest{
		Resource: 0xABCDEF,
		Client:   7,
		Mode:     3,
		Range:    extent.New(4096, extent.Inf),
		Extents:  []extent.Extent{extent.New(0, 10), extent.New(20, 30)},
	}
	var out LockRequest
	roundTrip(t, in, &out)
	if !reflect.DeepEqual(*in, out) {
		t.Fatalf("got %+v, want %+v", out, *in)
	}
}

func TestLockGrantRoundTrip(t *testing.T) {
	in := &LockGrant{
		LockID:   99,
		Mode:     2,
		Range:    extent.New(0, extent.Inf),
		SN:       12345,
		State:    1,
		Absorbed: []uint64{3, 5, 8},
	}
	var out LockGrant
	roundTrip(t, in, &out)
	if !reflect.DeepEqual(*in, out) {
		t.Fatalf("got %+v, want %+v", out, *in)
	}
}

func TestFlushRequestRoundTrip(t *testing.T) {
	in := &FlushRequest{
		Resource: 42,
		Client:   3,
		Blocks: []Block{
			{Range: extent.New(0, 4), SN: 9, Data: []byte{1, 2, 3, 4}},
			{Range: extent.New(100, 102), SN: 10, Data: []byte{5, 6}},
		},
	}
	var out FlushRequest
	roundTrip(t, in, &out)
	if !reflect.DeepEqual(*in, out) {
		t.Fatalf("got %+v, want %+v", out, *in)
	}
}

func TestReadRoundTrip(t *testing.T) {
	req := &ReadRequest{Resource: 1, Range: extent.New(8, 16)}
	var reqOut ReadRequest
	roundTrip(t, req, &reqOut)
	if *req != reqOut {
		t.Fatalf("got %+v, want %+v", reqOut, *req)
	}
	rep := &ReadReply{Blocks: []Block{{Range: extent.New(8, 12), SN: 2, Data: []byte("abcd")}}}
	var repOut ReadReply
	roundTrip(t, rep, &repOut)
	if !reflect.DeepEqual(*rep, repOut) {
		t.Fatalf("got %+v, want %+v", repOut, *rep)
	}
}

func TestMetaMessagesRoundTrip(t *testing.T) {
	cr := &CreateRequest{Path: "/a/b", StripeSize: 1 << 20, StripeCount: 4}
	var crOut CreateRequest
	roundTrip(t, cr, &crOut)
	if *cr != crOut {
		t.Fatalf("got %+v", crOut)
	}
	fr := &FileReply{FID: 7, Size: 123, StripeSize: 1 << 20, StripeCount: 4}
	var frOut FileReply
	roundTrip(t, fr, &frOut)
	if *fr != frOut {
		t.Fatalf("got %+v", frOut)
	}
	ss := &SetSizeRequest{FID: 7, Size: 1 << 40, Truncate: true}
	var ssOut SetSizeRequest
	roundTrip(t, ss, &ssOut)
	if *ss != ssOut {
		t.Fatalf("got %+v", ssOut)
	}
}

func TestSmallMessagesRoundTrip(t *testing.T) {
	msgs := []struct{ in, out Msg }{
		{&ReleaseRequest{Resource: 1, LockID: 2}, &ReleaseRequest{}},
		{&DowngradeRequest{Resource: 1, LockID: 2, NewMode: 3}, &DowngradeRequest{}},
		{&RevokeRequest{Resource: 4, LockID: 5}, &RevokeRequest{}},
		{&MinSNRequest{Resource: 6, Range: extent.New(0, 10)}, &MinSNRequest{}},
		{&MinSNReply{HasLocks: true, MinSN: 77}, &MinSNReply{}},
		{&HelloRequest{NodeName: "n1", ClientID: 9}, &HelloRequest{}},
		{&HelloReply{ClientID: 9}, &HelloReply{}},
		{&SizeReply{Size: 1234}, &SizeReply{}},
		{&Ack{}, &Ack{}},
	}
	for _, m := range msgs {
		roundTrip(t, m.in, m.out)
		if !reflect.DeepEqual(reflect.ValueOf(m.in).Elem().Interface(),
			reflect.ValueOf(m.out).Elem().Interface()) {
			t.Fatalf("%T: got %+v, want %+v", m.in, m.out, m.in)
		}
	}
}

func TestHandoffMessagesRoundTrip(t *testing.T) {
	stamp := &HandoffStamp{NextOwner: 4, NewLockID: 77, Mode: 2, SN: 123, MustFlush: true}
	rv := &RevokeRequest{Resource: 9, LockID: 5, Handoff: stamp}
	var rvOut RevokeRequest
	roundTrip(t, rv, &rvOut)
	if rvOut.Resource != 9 || rvOut.LockID != 5 || rvOut.Handoff == nil || *rvOut.Handoff != *stamp {
		t.Fatalf("stamped revoke round trip = %+v", rvOut)
	}

	batch := &RevokeBatch{Entries: []RevokeEntry{
		{Resource: 1, LockID: 2},
		{Resource: 1, LockID: 3, Handoff: stamp},
	}}
	var batchOut RevokeBatch
	roundTrip(t, batch, &batchOut)
	if len(batchOut.Entries) != 2 || batchOut.Entries[0].Handoff != nil ||
		batchOut.Entries[1].Handoff == nil || *batchOut.Entries[1].Handoff != *stamp {
		t.Fatalf("stamped batch round trip = %+v", batchOut)
	}

	req := &LockRequest{
		Resource: 1, Client: 2, Mode: 3, Range: extent.New(0, 10),
		HandoffAcks: []uint64{40, 41},
	}
	var reqOut LockRequest
	roundTrip(t, req, &reqOut)
	if !reflect.DeepEqual(*req, reqOut) {
		t.Fatalf("got %+v, want %+v", reqOut, *req)
	}

	g := &LockGrant{LockID: 77, Mode: 2, Range: extent.New(0, 10), SN: 123, Delegated: true}
	var gOut LockGrant
	roundTrip(t, g, &gOut)
	if !reflect.DeepEqual(*g, gOut) {
		t.Fatalf("got %+v, want %+v", gOut, *g)
	}

	for _, m := range []struct{ in, out Msg }{
		{&HandoffRequest{Resource: 9, LockID: 77}, &HandoffRequest{}},
		{&HandoffAckRequest{Resource: 9, LockID: 77}, &HandoffAckRequest{}},
	} {
		roundTrip(t, m.in, m.out)
		if !reflect.DeepEqual(reflect.ValueOf(m.in).Elem().Interface(),
			reflect.ValueOf(m.out).Elem().Interface()) {
			t.Fatalf("%T: got %+v, want %+v", m.in, m.out, m.in)
		}
	}

	// Non-canonical bool bytes must not survive: the batch path
	// re-marshals decoded entries, so a 2-valued "present" byte would
	// otherwise round-trip to a different frame.
	frame := Marshal(rv)
	frame[16] = 2 // the stamp-present byte
	var bad RevokeRequest
	if err := Unmarshal(frame, &bad); err == nil {
		t.Fatal("non-canonical stamp-present byte accepted")
	}
}

// TestFanMessagesRoundTrip covers the reader fan-out extensions: the
// broadcast-widened revocation stamp, the gather grant with a pre-armed
// handback cohort, the broadcast-forwarding peer transfer, and the
// propagation-tree message itself.
func TestFanMessagesRoundTrip(t *testing.T) {
	cohort := &BroadcastGrant{
		Mode:   1,
		Range:  extent.New(0, 1<<20),
		Fanout: 2,
		Leases: []LeaseEntry{
			{Owner: 5, LockID: 80, SN: 200},
			{Owner: 6, LockID: 81, SN: 200},
			{Owner: 7, LockID: 82, SN: 200},
		},
	}

	rv := &RevokeRequest{Resource: 9, LockID: 5, Handoff: &HandoffStamp{
		NextOwner: 5, NewLockID: 80, Mode: 1, SN: 200, MustFlush: true, Broadcast: cohort,
	}}
	var rvOut RevokeRequest
	roundTrip(t, rv, &rvOut)
	if rvOut.Handoff == nil || !reflect.DeepEqual(rvOut.Handoff.Broadcast, cohort) {
		t.Fatalf("broadcast-stamped revoke round trip = %+v", rvOut)
	}

	g := &LockGrant{
		LockID: 90, Mode: 4, Range: extent.New(0, 1<<20), SN: 201,
		Delegated: true, GatherParts: 3, HandBack: cohort,
	}
	var gOut LockGrant
	roundTrip(t, g, &gOut)
	if !reflect.DeepEqual(*g, gOut) {
		t.Fatalf("gather grant round trip: got %+v, want %+v", gOut, *g)
	}

	ho := &HandoffRequest{Resource: 9, LockID: 80, Acks: []uint64{70, 71}, Broadcast: cohort}
	var hoOut HandoffRequest
	roundTrip(t, ho, &hoOut)
	if !reflect.DeepEqual(*ho, hoOut) {
		t.Fatalf("broadcast transfer round trip: got %+v, want %+v", hoOut, *ho)
	}

	lp := &LeasePropagate{
		Resource: 9, Mode: 1, Range: extent.New(0, 1<<20), Fanout: 2,
		Leases: []LeaseEntry{{Owner: 6, LockID: 81, SN: 200}, {Owner: 7, LockID: 82, SN: 200}},
	}
	var lpOut LeasePropagate
	roundTrip(t, lp, &lpOut)
	if !reflect.DeepEqual(*lp, lpOut) {
		t.Fatalf("lease propagate round trip: got %+v, want %+v", lpOut, *lp)
	}

	// A non-canonical cohort-present byte must not survive: the batch
	// and forwarding paths re-marshal decoded messages.
	frame := Marshal(&HandoffRequest{Resource: 9, LockID: 80})
	frame[len(frame)-2] = 2 // cohort-present byte sits just before Final
	var bad HandoffRequest
	if err := Unmarshal(frame, &bad); err == nil {
		t.Fatal("non-canonical cohort-present byte accepted")
	}
}

func TestUnmarshalRejectsGarbage(t *testing.T) {
	var g LockGrant
	if err := Unmarshal([]byte{1, 2, 3}, &g); err == nil {
		t.Fatal("garbage frame accepted")
	}
}

// Property: LockRequest round-trips for arbitrary field values.
func TestQuickLockRequestRoundTrip(t *testing.T) {
	f := func(res uint64, cl uint32, mode uint8, start, length uint32) bool {
		in := &LockRequest{
			Resource: res,
			Client:   cl,
			Mode:     mode,
			Range:    extent.Span(int64(start), int64(length)+1),
		}
		var out LockRequest
		if err := Unmarshal(Marshal(in), &out); err != nil {
			return false
		}
		return reflect.DeepEqual(*in, out)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: arbitrary payload bytes survive a flush round trip intact.
func TestQuickFlushDataIntegrity(t *testing.T) {
	f := func(data []byte, sn uint64) bool {
		in := &FlushRequest{Resource: 1, Blocks: []Block{{
			Range: extent.Span(0, int64(len(data))+1), SN: sn, Data: data,
		}}}
		var out FlushRequest
		if err := Unmarshal(Marshal(in), &out); err != nil {
			return false
		}
		return bytes.Equal(out.Blocks[0].Data, data) && out.Blocks[0].SN == sn
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkMarshalFlush64K(b *testing.B) {
	data := make([]byte, 64<<10)
	m := &FlushRequest{Resource: 1, Blocks: []Block{{Range: extent.Span(0, int64(len(data))), SN: 1, Data: data}}}
	b.ReportAllocs()
	b.SetBytes(int64(len(data)))
	for i := 0; i < b.N; i++ {
		Marshal(m)
	}
}

func BenchmarkUnmarshalFlush64K(b *testing.B) {
	data := make([]byte, 64<<10)
	frame := Marshal(&FlushRequest{Resource: 1, Blocks: []Block{{Range: extent.Span(0, int64(len(data))), SN: 1, Data: data}}})
	b.ReportAllocs()
	b.SetBytes(int64(len(data)))
	for i := 0; i < b.N; i++ {
		var out FlushRequest
		if err := Unmarshal(frame, &out); err != nil {
			b.Fatal(err)
		}
	}
}

func TestEncodedSizeMatchesMarshal(t *testing.T) {
	blocks := func(sizes ...int) []Block {
		var out []Block
		for i, n := range sizes {
			out = append(out, Block{Range: extent.Span(int64(i)*1000, int64(n)), SN: uint64(i + 1), Data: make([]byte, n)})
		}
		return out
	}
	cases := []struct {
		name string
		msg  interface {
			Msg
			EncodedSize() int
		}
	}{
		{"flush/none", &FlushRequest{Resource: 3, Client: 4}},
		{"flush/one", &FlushRequest{Resource: 3, Client: 4, Blocks: blocks(47008)}},
		{"flush/many", &FlushRequest{Blocks: blocks(1, 0, 4096, 65536, 7)}},
		{"flush/empty-data", &FlushRequest{Blocks: blocks(0)}},
		{"read/none", &ReadReply{}},
		{"read/one", &ReadReply{Blocks: blocks(65536)}},
		{"read/many", &ReadReply{Blocks: blocks(3, 9, 0, 100)}},
		{"read/empty-data", &ReadReply{Blocks: blocks(0, 0)}},
	}
	for _, tc := range cases {
		if got, want := tc.msg.EncodedSize(), len(Marshal(tc.msg)); got != want {
			t.Errorf("%s: EncodedSize = %d, Marshal = %d bytes", tc.name, got, want)
		}
	}
}

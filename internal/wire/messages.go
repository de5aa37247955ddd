package wire

import "ccpfs/internal/extent"

// Method identifies an RPC handler. Methods below 128 are client→server;
// methods at or above 128 are server→client callbacks.
type Method uint8

// RPC methods.
const (
	// Lock service.
	MLock       Method = 1 // LockRequest -> LockGrant
	MRelease    Method = 2 // ReleaseRequest -> Ack
	MDowngrade  Method = 3 // DowngradeRequest -> Ack
	MHandoffAck Method = 7 // HandoffAckRequest -> Ack (new owner confirms a delegated lock)
	// IO service.
	MFlush Method = 10 // FlushRequest -> Ack
	MRead  Method = 11 // ReadRequest -> ReadReply
	MMinSN Method = 12 // MinSNRequest -> MinSNReply
	// Metadata service.
	MCreate  Method = 20 // CreateRequest -> FileReply
	MOpen    Method = 21 // OpenRequest -> FileReply
	MStat    Method = 22 // OpenRequest -> FileReply
	MSetSize Method = 23 // SetSizeRequest -> SizeReply
	MRemove  Method = 24 // OpenRequest -> Ack
	MReserve Method = 25 // SetSizeRequest (Size = byte count) -> SizeReply (reserved offset)
	MList    Method = 26 // Ack -> ListReply
	// Partition service (slot mastership; DESIGN.md §12).
	MPartitionMap Method = 4 // Ack -> PartitionMapReply (client map refresh)
	MSlotFreeze   Method = 5 // SlotFreezeRequest -> SlotState (migration source)
	MSlotInstall  Method = 6 // SlotInstall -> Ack (migration target)
	// Session.
	MHello Method = 30 // HelloRequest -> HelloReply
	// Server→client callbacks.
	MRevoke      Method = 128 // RevokeRequest -> Ack
	MReport      Method = 129 // Ack -> LockReport (server recovery, §IV-C2)
	MRevokeBatch Method = 130 // RevokeBatch -> RevokeBatchAck
	MReportSlots Method = 131 // SlotReportRequest -> LockReport (slot takeover replay)
	// MHandoff activates a delegated lock at its new owner. It travels
	// client→client when the previous holder transfers the lock directly,
	// and server→client when the server resolves the delegation itself
	// (holder vanished, handoff refused, or reclaim timeout). Duplicate
	// activations are idempotent at the receiver.
	MHandoff Method = 132 // HandoffRequest -> Ack
	// MLeasePropagate pushes read leases peer-to-peer down a
	// bounded-fanout tree: the lead reader of a broadcast delegation
	// installs its own lease and forwards the remaining subtrees to the
	// first member of each, which recurses. Travels client→client only;
	// the server resolves stragglers through MHandoff as usual.
	MLeasePropagate Method = 133 // LeasePropagate -> Ack
)

// methodNames maps methods to their metric/debug labels. Indexed by the
// raw uint8 so lookups never allocate.
var methodNames = [256]string{
	MLock:           "Lock",
	MRelease:        "Release",
	MDowngrade:      "Downgrade",
	MFlush:          "Flush",
	MRead:           "Read",
	MMinSN:          "MinSN",
	MCreate:         "Create",
	MOpen:           "Open",
	MStat:           "Stat",
	MSetSize:        "SetSize",
	MRemove:         "Remove",
	MReserve:        "Reserve",
	MList:           "List",
	MHello:          "Hello",
	MRevoke:         "Revoke",
	MReport:         "Report",
	MRevokeBatch:    "RevokeBatch",
	MHandoff:        "Handoff",
	MHandoffAck:     "HandoffAck",
	MLeasePropagate: "LeasePropagate",
	MPartitionMap:   "PartitionMap",
	MSlotFreeze:     "SlotFreeze",
	MSlotInstall:    "SlotInstall",
	MReportSlots:    "ReportSlots",
}

// String returns the method's human-readable name, or "m<N>" for an
// unknown method number.
func (m Method) String() string {
	if s := methodNames[m]; s != "" {
		return s
	}
	return "m" + itoa(uint8(m))
}

// itoa formats a uint8 without pulling fmt into the wire package's
// dependency graph.
func itoa(v uint8) string {
	if v == 0 {
		return "0"
	}
	var buf [3]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = '0' + v%10
		v /= 10
	}
	return string(buf[i:])
}

// Msg is the interface all wire messages implement.
type Msg interface {
	Encode(e *Encoder)
	Decode(d *Decoder)
}

// emptyFrame is the shared encoding of every payload-free message
// (Ack, cancel frames): all of them marshal to zero bytes, so they can
// share one frame instead of each allocating a 64-byte encoder.
var emptyFrame = make([]byte, 0)

// Marshal encodes m into a frame. Payload-free messages return a shared
// empty frame; the caller owns the result either way (the shared frame
// is immutable because it has no bytes to mutate and zero capacity).
func Marshal(m Msg) []byte {
	var e Encoder
	m.Encode(&e)
	if e.buf == nil {
		return emptyFrame
	}
	return e.buf
}

// Unmarshal decodes a frame into m, requiring full consumption.
func Unmarshal(b []byte, m Msg) error {
	d := NewDecoder(b)
	m.Decode(d)
	return d.Finish()
}

func encodeExtent(e *Encoder, x extent.Extent) {
	e.I64(x.Start)
	e.I64(x.End)
}

func decodeExtent(d *Decoder) extent.Extent {
	return extent.Extent{Start: d.I64(), End: d.I64()}
}

// Ack is the empty reply used by methods that only signal completion.
type Ack struct{}

// Encode implements Msg.
func (Ack) Encode(*Encoder) {}

// Decode implements Msg.
func (*Ack) Decode(*Decoder) {}

// LockRequest asks a lock server for a byte-range lock on a resource.
type LockRequest struct {
	Resource uint64
	Client   uint32
	Mode     uint8
	Range    extent.Extent
	// Extents carries the non-contiguous lock range of the DLM-datatype
	// baseline; empty for interval-based policies.
	Extents []extent.Extent
	// HandoffAcks piggybacks delegation acknowledgements for locks on
	// this resource: the client received them via direct client-to-client
	// handoff and confirms ownership on its next lock RPC, saving the
	// standalone MHandoffAck round trip in steady ping-pong traffic.
	HandoffAcks []uint64
}

// Encode implements Msg.
func (m *LockRequest) Encode(e *Encoder) {
	e.U64(m.Resource)
	e.U32(m.Client)
	e.U8(m.Mode)
	encodeExtent(e, m.Range)
	e.U32(uint32(len(m.Extents)))
	for _, x := range m.Extents {
		encodeExtent(e, x)
	}
	e.U32(uint32(len(m.HandoffAcks)))
	for _, id := range m.HandoffAcks {
		e.U64(id)
	}
}

// Decode implements Msg.
func (m *LockRequest) Decode(d *Decoder) {
	m.Resource = d.U64()
	m.Client = d.U32()
	m.Mode = d.U8()
	m.Range = decodeExtent(d)
	n := d.Len32(16)
	if n > 0 {
		m.Extents = make([]extent.Extent, n)
		for i := range m.Extents {
			m.Extents[i] = decodeExtent(d)
		}
	}
	n = d.Len32(8)
	if n > 0 {
		m.HandoffAcks = make([]uint64, n)
		for i := range m.HandoffAcks {
			m.HandoffAcks[i] = d.U64()
		}
	}
}

// LockGrant is the reply to a LockRequest. The server may expand the
// range, upgrade the mode (automatic lock conversion), tag the lock
// CANCELING (early revocation), and list same-client lock IDs the grant
// absorbed during upgrading.
type LockGrant struct {
	LockID   uint64
	Mode     uint8
	Range    extent.Extent
	SN       uint64
	State    uint8
	Absorbed []uint64
	// Delegated marks a handoff grant: the lock exists in the server's
	// table but ownership arrives via a direct transfer from the previous
	// holder (MHandoff). The client must wait for that activation before
	// using the lock, and must ack the server once it owns it.
	Delegated bool
	// GatherParts is the number of client-to-client transfer parts a
	// delegated write grant must collect before activating: a writer
	// taking over from a reader cohort receives one MHandoff part per
	// cohort member instead of a single transfer. Zero for ordinary
	// delegations (one transfer activates the lock).
	GatherParts uint32
	// HandBack pre-arms the next read fan-out: the server has already
	// installed delegated leases for the displaced reader cohort, and
	// the grantee (a writer) owes them a broadcast transfer when it
	// finishes — without another server round trip.
	HandBack *BroadcastGrant
}

// Encode implements Msg.
func (m *LockGrant) Encode(e *Encoder) {
	e.U64(m.LockID)
	e.U8(m.Mode)
	encodeExtent(e, m.Range)
	e.U64(m.SN)
	e.U8(m.State)
	e.U32(uint32(len(m.Absorbed)))
	for _, id := range m.Absorbed {
		e.U64(id)
	}
	e.Bool(m.Delegated)
	e.U32(m.GatherParts)
	encodeBroadcastGrant(e, m.HandBack)
}

// Decode implements Msg.
func (m *LockGrant) Decode(d *Decoder) {
	m.LockID = d.U64()
	m.Mode = d.U8()
	m.Range = decodeExtent(d)
	m.SN = d.U64()
	m.State = d.U8()
	n := d.Len32(8)
	if n > 0 {
		m.Absorbed = make([]uint64, n)
		for i := range m.Absorbed {
			m.Absorbed[i] = d.U64()
		}
	}
	m.Delegated = d.Bool()
	m.GatherParts = d.U32()
	m.HandBack = decodeBroadcastGrant(d)
}

// ReleaseRequest returns a fully canceled lock to the server.
type ReleaseRequest struct {
	Resource uint64
	LockID   uint64
}

// Encode implements Msg.
func (m *ReleaseRequest) Encode(e *Encoder) {
	e.U64(m.Resource)
	e.U64(m.LockID)
}

// Decode implements Msg.
func (m *ReleaseRequest) Decode(d *Decoder) {
	m.Resource = d.U64()
	m.LockID = d.U64()
}

// DowngradeRequest converts a granted lock to a less restrictive mode
// (BW→NBW, PW→NBW or PW→PR) so conflicting requests can be early
// granted (§III-D2).
type DowngradeRequest struct {
	Resource uint64
	LockID   uint64
	NewMode  uint8
}

// Encode implements Msg.
func (m *DowngradeRequest) Encode(e *Encoder) {
	e.U64(m.Resource)
	e.U64(m.LockID)
	e.U8(m.NewMode)
}

// Decode implements Msg.
func (m *DowngradeRequest) Decode(d *Decoder) {
	m.Resource = d.U64()
	m.LockID = d.U64()
	m.NewMode = d.U8()
}

// HandoffStamp is the delegation grant a lock server may attach to a
// revocation: instead of canceling back to the server, the holder
// transfers the lock directly to NextOwner over MHandoff. NewLockID and
// SN are the successor lock's identity in the server's table (the SN is
// assigned by the server at stamp time, so sequencer ordering is fixed
// before any client acts); MustFlush carries the dirty-flush obligation
// — the holder must flush its writes before transferring, exactly as it
// would before a release.
type HandoffStamp struct {
	NextOwner uint32
	NewLockID uint64
	Mode      uint8
	SN        uint64
	MustFlush bool
	// Broadcast widens the delegation to a reader cohort: the holder
	// transfers to the lead (NextOwner, also Leases[0].Owner) and the
	// lead propagates the remaining leases peer-to-peer down a
	// bounded-fanout tree. Nil for single-successor handoffs.
	Broadcast *BroadcastGrant
}

// LeaseEntry is one reader's delegated lease inside a broadcast grant:
// its owner, the successor lock's server-assigned identity, and the SN
// fixed by the sequencer at stamp time.
type LeaseEntry struct {
	Owner  uint32
	LockID uint64
	SN     uint64
}

// BroadcastGrant is the ordered reader cohort of a fan-out delegation.
// Leases are listed in queue order — entry 0 is the lead reader that
// receives the direct transfer; the rest form the propagation subtrees.
// All leases share Mode and Range (the server expands once for the
// whole run, like a batched grant).
type BroadcastGrant struct {
	Mode   uint8
	Range  extent.Extent
	Fanout uint8
	Leases []LeaseEntry
}

func encodeBroadcastGrant(e *Encoder, b *BroadcastGrant) {
	if b == nil {
		e.Bool(false)
		return
	}
	e.Bool(true)
	e.U8(b.Mode)
	encodeExtent(e, b.Range)
	e.U8(b.Fanout)
	e.U32(uint32(len(b.Leases)))
	for i := range b.Leases {
		e.U32(b.Leases[i].Owner)
		e.U64(b.Leases[i].LockID)
		e.U64(b.Leases[i].SN)
	}
}

func decodeBroadcastGrant(d *Decoder) *BroadcastGrant {
	if !d.StrictBool() {
		return nil
	}
	b := &BroadcastGrant{}
	b.Mode = d.U8()
	b.Range = decodeExtent(d)
	b.Fanout = d.U8()
	n := d.Len32(20)
	if n > 0 {
		b.Leases = make([]LeaseEntry, n)
		for i := range b.Leases {
			b.Leases[i].Owner = d.U32()
			b.Leases[i].LockID = d.U64()
			b.Leases[i].SN = d.U64()
		}
	}
	return b
}

func encodeHandoffStamp(e *Encoder, h *HandoffStamp) {
	if h == nil {
		e.Bool(false)
		return
	}
	e.Bool(true)
	e.U32(h.NextOwner)
	e.U64(h.NewLockID)
	e.U8(h.Mode)
	e.U64(h.SN)
	e.Bool(h.MustFlush)
	encodeBroadcastGrant(e, h.Broadcast)
}

func decodeHandoffStamp(d *Decoder) *HandoffStamp {
	if !d.StrictBool() {
		return nil
	}
	h := &HandoffStamp{}
	h.NextOwner = d.U32()
	h.NewLockID = d.U64()
	h.Mode = d.U8()
	h.SN = d.U64()
	h.MustFlush = d.StrictBool()
	h.Broadcast = decodeBroadcastGrant(d)
	return h
}

// RevokeRequest is the server→client callback asking the holder to
// cancel a cached lock. The reply (Ack) is the revocation reply that
// moves the lock to CANCELING on the server and unlocks early grant.
// A non-nil Handoff turns the revocation into a transfer order: after
// flushing (per the stamp), the holder hands the lock directly to the
// stamped next owner instead of releasing it back to the server.
type RevokeRequest struct {
	Resource uint64
	LockID   uint64
	Handoff  *HandoffStamp
}

// Encode implements Msg.
func (m *RevokeRequest) Encode(e *Encoder) {
	e.U64(m.Resource)
	e.U64(m.LockID)
	encodeHandoffStamp(e, m.Handoff)
}

// Decode implements Msg.
func (m *RevokeRequest) Decode(d *Decoder) {
	m.Resource = d.U64()
	m.LockID = d.U64()
	m.Handoff = decodeHandoffStamp(d)
}

// RevokeEntry identifies one lock inside a batched revocation, with its
// optional handoff stamp.
type RevokeEntry struct {
	Resource uint64
	LockID   uint64
	Handoff  *HandoffStamp
}

// RevokeBatch is the server→client callback carrying every revocation
// currently pending for one client in a single RPC: the lock server's
// revocation batcher coalesces per destination, so a wide conflict
// costs one callback per holder instead of one per lock (DESIGN.md §9).
// The reply is a RevokeBatchAck listing the entries the client has
// processed; each acked entry has the same meaning as an individual
// RevokeRequest ack.
type RevokeBatch struct {
	Entries []RevokeEntry
}

// Encode implements Msg.
func (m *RevokeBatch) Encode(e *Encoder) {
	e.U32(uint32(len(m.Entries)))
	for i := range m.Entries {
		e.U64(m.Entries[i].Resource)
		e.U64(m.Entries[i].LockID)
		encodeHandoffStamp(e, m.Entries[i].Handoff)
	}
}

// Decode implements Msg.
func (m *RevokeBatch) Decode(d *Decoder) {
	n := d.Len32(17)
	if n > 0 {
		m.Entries = make([]RevokeEntry, n)
		for i := range m.Entries {
			m.Entries[i].Resource = d.U64()
			m.Entries[i].LockID = d.U64()
			m.Entries[i].Handoff = decodeHandoffStamp(d)
		}
	}
}

// RevokeBatchAck is the reply to a RevokeBatch: the batched revocation
// acks. Entries absent from Acked were not processed (the client is
// shutting down mid-batch); the server treats them like a failed
// individual revocation — ack and force-release on the holder's behalf.
type RevokeBatchAck struct {
	Acked []RevokeEntry
}

// Encode implements Msg.
func (m *RevokeBatchAck) Encode(e *Encoder) {
	e.U32(uint32(len(m.Acked)))
	for i := range m.Acked {
		e.U64(m.Acked[i].Resource)
		e.U64(m.Acked[i].LockID)
	}
}

// Decode implements Msg.
func (m *RevokeBatchAck) Decode(d *Decoder) {
	n := d.Len32(16)
	if n > 0 {
		m.Acked = make([]RevokeEntry, n)
		for i := range m.Acked {
			m.Acked[i].Resource = d.U64()
			m.Acked[i].LockID = d.U64()
		}
	}
}

// HandoffRequest activates a delegated lock at its new owner: LockID is
// the successor lock's server-assigned identity (HandoffStamp.NewLockID
// / the Delegated grant's LockID). Sent client→client by the previous
// holder after its flush, or server→client when the server resolves the
// delegation itself.
type HandoffRequest struct {
	Resource uint64
	LockID   uint64
	// Acks piggybacks the sender's queued delegation acknowledgements
	// for this resource: a reader transferring to a gathering writer
	// forwards its pending acks so the writer can batch them onto its
	// next server RPC instead of each reader paying a standalone
	// MHandoffAck.
	Acks []uint64
	// Broadcast forwards the remaining reader cohort to the lead: the
	// receiver installs Leases[0] as its own lease and propagates the
	// rest down the tree via MLeasePropagate.
	Broadcast *BroadcastGrant
	// Final marks a server-sent activation: the delegation was resolved
	// server-side, so the receiver activates immediately even if it was
	// collecting multiple gather parts. Peer transfers leave it false.
	Final bool
}

// Encode implements Msg.
func (m *HandoffRequest) Encode(e *Encoder) {
	e.U64(m.Resource)
	e.U64(m.LockID)
	e.U32(uint32(len(m.Acks)))
	for _, id := range m.Acks {
		e.U64(id)
	}
	encodeBroadcastGrant(e, m.Broadcast)
	e.Bool(m.Final)
}

// Decode implements Msg.
func (m *HandoffRequest) Decode(d *Decoder) {
	m.Resource = d.U64()
	m.LockID = d.U64()
	n := d.Len32(8)
	if n > 0 {
		m.Acks = make([]uint64, n)
		for i := range m.Acks {
			m.Acks[i] = d.U64()
		}
	}
	m.Broadcast = decodeBroadcastGrant(d)
	m.Final = d.Bool()
}

// HandoffAckRequest is the new owner's asynchronous confirmation that a
// delegated lock arrived: the server retires the predecessor's table
// entry and cancels the reclaim timer. Acks for already-resolved
// delegations are idempotent no-ops.
type HandoffAckRequest struct {
	Resource uint64
	LockID   uint64
	// More batches additional lock IDs acked in the same request: a
	// reader cohort's acks gathered by a writer, or a client draining a
	// backlog, confirm in one RPC instead of one per lock.
	More []uint64
}

// Encode implements Msg.
func (m *HandoffAckRequest) Encode(e *Encoder) {
	e.U64(m.Resource)
	e.U64(m.LockID)
	e.U32(uint32(len(m.More)))
	for _, id := range m.More {
		e.U64(id)
	}
}

// Decode implements Msg.
func (m *HandoffAckRequest) Decode(d *Decoder) {
	m.Resource = d.U64()
	m.LockID = d.U64()
	n := d.Len32(8)
	if n > 0 {
		m.More = make([]uint64, n)
		for i := range m.More {
			m.More[i] = d.U64()
		}
	}
}

// LeasePropagate pushes a subtree of a broadcast read delegation to its
// next member: Leases[0] is the receiver's own lease; the receiver
// splits the remainder into up to Fanout subtrees and forwards each to
// its first entry's owner. Mode and Range are shared by the whole
// cohort. Duplicate deliveries are idempotent at the receiver (the
// reclaimer may race the tree and resolve a lease through MHandoff).
type LeasePropagate struct {
	Resource uint64
	Mode     uint8
	Range    extent.Extent
	Fanout   uint8
	Leases   []LeaseEntry
}

// Encode implements Msg.
func (m *LeasePropagate) Encode(e *Encoder) {
	e.U64(m.Resource)
	e.U8(m.Mode)
	encodeExtent(e, m.Range)
	e.U8(m.Fanout)
	e.U32(uint32(len(m.Leases)))
	for i := range m.Leases {
		e.U32(m.Leases[i].Owner)
		e.U64(m.Leases[i].LockID)
		e.U64(m.Leases[i].SN)
	}
}

// Decode implements Msg.
func (m *LeasePropagate) Decode(d *Decoder) {
	m.Resource = d.U64()
	m.Mode = d.U8()
	m.Range = decodeExtent(d)
	m.Fanout = d.U8()
	n := d.Len32(20)
	if n > 0 {
		m.Leases = make([]LeaseEntry, n)
		for i := range m.Leases {
			m.Leases[i].Owner = d.U32()
			m.Leases[i].LockID = d.U64()
			m.Leases[i].SN = d.U64()
		}
	}
}

// Block is one SN-tagged extent of data in a flush or read message.
type Block struct {
	Range extent.Extent
	SN    uint64
	Data  []byte
}

// blockHeaderLen is a Block's encoded size without its data: range,
// SN and data length.
const blockHeaderLen = 16 + 8 + 4

// blocksSize returns the encoded size of a block count and blocks.
func blocksSize(bs []Block) int {
	n := 4
	for i := range bs {
		n += blockHeaderLen + len(bs[i].Data)
	}
	return n
}

// FlushRequest carries dirty client-cache blocks to a data server. Blocks
// from multiple locks may be batched; each block carries the SN of the
// lock it was written under (§IV-A).
type FlushRequest struct {
	Resource uint64
	Client   uint32
	Blocks   []Block
}

// Encode implements Msg.
func (m *FlushRequest) Encode(e *Encoder) {
	e.U64(m.Resource)
	e.U32(m.Client)
	e.U32(uint32(len(m.Blocks)))
	for i := range m.Blocks {
		encodeExtent(e, m.Blocks[i].Range)
		e.U64(m.Blocks[i].SN)
		e.Bytes32(m.Blocks[i].Data)
	}
}

// EncodedSize returns the length of m's encoding, so a sender can draw
// a frame of the right size class instead of growing one by append.
func (m *FlushRequest) EncodedSize() int { return 8 + 4 + blocksSize(m.Blocks) }

// Decode implements Msg.
func (m *FlushRequest) Decode(d *Decoder) {
	m.Resource = d.U64()
	m.Client = d.U32()
	n := d.Len32(blockHeaderLen)
	if n > 0 {
		m.Blocks = make([]Block, n)
		for i := range m.Blocks {
			m.Blocks[i].Range = decodeExtent(d)
			m.Blocks[i].SN = d.U64()
			m.Blocks[i].Data = d.Bytes32()
		}
	}
}

// ReadRequest fetches a byte range of a stripe resource.
type ReadRequest struct {
	Resource uint64
	Range    extent.Extent
}

// Encode implements Msg.
func (m *ReadRequest) Encode(e *Encoder) {
	e.U64(m.Resource)
	encodeExtent(e, m.Range)
}

// Decode implements Msg.
func (m *ReadRequest) Decode(d *Decoder) {
	m.Resource = d.U64()
	m.Range = decodeExtent(d)
}

// ReadReply returns the stored blocks covering the requested range;
// holes (never-written ranges) are omitted and read as zeros.
type ReadReply struct {
	Blocks []Block
}

// Encode implements Msg.
func (m *ReadReply) Encode(e *Encoder) {
	e.U32(uint32(len(m.Blocks)))
	for i := range m.Blocks {
		encodeExtent(e, m.Blocks[i].Range)
		e.U64(m.Blocks[i].SN)
		e.Bytes32(m.Blocks[i].Data)
	}
}

// EncodedSize returns the length of m's encoding (see FlushRequest).
func (m *ReadReply) EncodedSize() int { return blocksSize(m.Blocks) }

// Decode implements Msg.
func (m *ReadReply) Decode(d *Decoder) {
	n := d.Len32(blockHeaderLen)
	if n > 0 {
		m.Blocks = make([]Block, n)
		for i := range m.Blocks {
			m.Blocks[i].Range = decodeExtent(d)
			m.Blocks[i].SN = d.U64()
			m.Blocks[i].Data = d.Bytes32()
		}
	}
}

// MinSNRequest asks the DLM service for the minimum SN among unreleased
// write locks overlapping a range — the mSN of the extent-cache cleanup
// task (§IV-B).
type MinSNRequest struct {
	Resource uint64
	Range    extent.Extent
}

// Encode implements Msg.
func (m *MinSNRequest) Encode(e *Encoder) {
	e.U64(m.Resource)
	encodeExtent(e, m.Range)
}

// Decode implements Msg.
func (m *MinSNRequest) Decode(d *Decoder) {
	m.Resource = d.U64()
	m.Range = decodeExtent(d)
}

// MinSNReply returns the mSN. When no unreleased write lock overlaps the
// range, HasLocks is false and every cached entry for the range is
// removable.
type MinSNReply struct {
	HasLocks bool
	MinSN    uint64
}

// Encode implements Msg.
func (m *MinSNReply) Encode(e *Encoder) {
	e.Bool(m.HasLocks)
	e.U64(m.MinSN)
}

// Decode implements Msg.
func (m *MinSNReply) Decode(d *Decoder) {
	m.HasLocks = d.Bool()
	m.MinSN = d.U64()
}

// CreateRequest creates a file in the namespace with a stripe layout.
type CreateRequest struct {
	Path        string
	StripeSize  int64
	StripeCount uint32
}

// Encode implements Msg.
func (m *CreateRequest) Encode(e *Encoder) {
	e.String(m.Path)
	e.I64(m.StripeSize)
	e.U32(m.StripeCount)
}

// Decode implements Msg.
func (m *CreateRequest) Decode(d *Decoder) {
	m.Path = d.String()
	m.StripeSize = d.I64()
	m.StripeCount = d.U32()
}

// OpenRequest opens, stats, or removes a file by path.
type OpenRequest struct {
	Path string
}

// Encode implements Msg.
func (m *OpenRequest) Encode(e *Encoder) { e.String(m.Path) }

// Decode implements Msg.
func (m *OpenRequest) Decode(d *Decoder) { m.Path = d.String() }

// FileReply describes a file: identifier, size, and stripe layout.
type FileReply struct {
	FID         uint64
	Size        int64
	StripeSize  int64
	StripeCount uint32
}

// Encode implements Msg.
func (m *FileReply) Encode(e *Encoder) {
	e.U64(m.FID)
	e.I64(m.Size)
	e.I64(m.StripeSize)
	e.U32(m.StripeCount)
}

// Decode implements Msg.
func (m *FileReply) Decode(d *Decoder) {
	m.FID = d.U64()
	m.Size = d.I64()
	m.StripeSize = d.I64()
	m.StripeCount = d.U32()
}

// SetSizeRequest updates a file's size register. With Truncate false the
// size only grows (the max of the current and new value, the common case
// for writes past EOF); with Truncate true it is set exactly.
type SetSizeRequest struct {
	FID      uint64
	Size     int64
	Truncate bool
}

// Encode implements Msg.
func (m *SetSizeRequest) Encode(e *Encoder) {
	e.U64(m.FID)
	e.I64(m.Size)
	e.Bool(m.Truncate)
}

// Decode implements Msg.
func (m *SetSizeRequest) Decode(d *Decoder) {
	m.FID = d.U64()
	m.Size = d.I64()
	m.Truncate = d.Bool()
}

// SizeReply returns the post-update file size.
type SizeReply struct {
	Size int64
}

// Encode implements Msg.
func (m *SizeReply) Encode(e *Encoder) { e.I64(m.Size) }

// Decode implements Msg.
func (m *SizeReply) Decode(d *Decoder) { m.Size = d.I64() }

// ListReply enumerates the namespace.
type ListReply struct {
	Paths []string
}

// Encode implements Msg.
func (m *ListReply) Encode(e *Encoder) {
	e.U32(uint32(len(m.Paths)))
	for _, p := range m.Paths {
		e.String(p)
	}
}

// Decode implements Msg.
func (m *ListReply) Decode(d *Decoder) {
	n := d.Len32(4)
	if n > 0 {
		m.Paths = make([]string, n)
		for i := range m.Paths {
			m.Paths[i] = d.String()
		}
	}
}

// LockRecord describes one granted lock a client reports during server
// recovery (§IV-C2).
type LockRecord struct {
	Resource uint64
	Client   uint32
	LockID   uint64
	Mode     uint8
	Range    extent.Extent
	SN       uint64
	State    uint8
	// Flags carries handoff-delegation state across a takeover replay
	// (DESIGN.md §13): the adopting master force-resolves reported
	// delegations the way a freeze would, instead of restoring
	// handed-off pairs it has no delegation state for.
	Flags uint8
}

// LockRecord flags.
const (
	// LockFlagDelegated marks a delegated grant whose transfer the
	// reporting client is still waiting for.
	LockFlagDelegated uint8 = 1 << iota
	// LockFlagHandedOff marks a lock its holder owes (or has already
	// sent) to a successor; the holder will never release it to the
	// server.
	LockFlagHandedOff
)

// LockReport is the client's reply to a recovery gather request.
type LockReport struct {
	Locks []LockRecord
}

// Encode implements Msg.
func (m *LockReport) Encode(e *Encoder) {
	e.U32(uint32(len(m.Locks)))
	for i := range m.Locks {
		l := &m.Locks[i]
		e.U64(l.Resource)
		e.U32(l.Client)
		e.U64(l.LockID)
		e.U8(l.Mode)
		encodeExtent(e, l.Range)
		e.U64(l.SN)
		e.U8(l.State)
		e.U8(l.Flags)
	}
}

// Decode implements Msg.
func (m *LockReport) Decode(d *Decoder) {
	n := d.Len32(47)
	if n > 0 {
		m.Locks = make([]LockRecord, n)
		for i := range m.Locks {
			l := &m.Locks[i]
			l.Resource = d.U64()
			l.Client = d.U32()
			l.LockID = d.U64()
			l.Mode = d.U8()
			l.Range = decodeExtent(d)
			l.SN = d.U64()
			l.State = d.U8()
			l.Flags = d.U8()
		}
	}
}

// HelloRequest registers a connection with a node. Clients announce a
// name; the server assigns the client identifier used in lock requests.
type HelloRequest struct {
	NodeName string
	// ClientID lets a client reuse one identity across connections to
	// multiple servers; zero asks the server to assign one.
	ClientID uint32
	// Bulk marks a data-path connection (flush/read traffic). Bulk
	// connections are not used for revocation callbacks, mirroring the
	// prototype's split between CaRT RPCs and RDMA bulk transfers.
	Bulk bool
}

// Encode implements Msg.
func (m *HelloRequest) Encode(e *Encoder) {
	e.String(m.NodeName)
	e.U32(m.ClientID)
	e.Bool(m.Bulk)
}

// Decode implements Msg.
func (m *HelloRequest) Decode(d *Decoder) {
	m.NodeName = d.String()
	m.ClientID = d.U32()
	m.Bulk = d.Bool()
}

// HelloReply confirms registration.
type HelloReply struct {
	ClientID uint32
}

// Encode implements Msg.
func (m *HelloReply) Encode(e *Encoder) { e.U32(m.ClientID) }

// Decode implements Msg.
func (m *HelloReply) Decode(d *Decoder) { m.ClientID = d.U32() }

// PartitionMapReply carries the versioned slot→lock-server routing
// table (DESIGN.md §12). Owners[s] is the index of the server
// mastering hash slot s, or -1 when the slot is currently masterless;
// Epoch orders views — a client discards any reply older than the map
// it already holds.
type PartitionMapReply struct {
	Epoch  uint64
	Owners []int32
}

// Encode implements Msg.
func (m *PartitionMapReply) Encode(e *Encoder) {
	e.U64(m.Epoch)
	e.U32(uint32(len(m.Owners)))
	for _, o := range m.Owners {
		e.U32(uint32(o))
	}
}

// Decode implements Msg.
func (m *PartitionMapReply) Decode(d *Decoder) {
	m.Epoch = d.U64()
	n := d.Len32(4)
	if n > 0 {
		m.Owners = make([]int32, n)
		for i := range m.Owners {
			m.Owners[i] = int32(d.U32())
		}
	}
}

// SlotFreezeRequest asks the migration source to freeze one slot and
// return its exported lock tables.
type SlotFreezeRequest struct {
	Slot uint32
}

// Encode implements Msg.
func (m *SlotFreezeRequest) Encode(e *Encoder) { e.U32(m.Slot) }

// Decode implements Msg.
func (m *SlotFreezeRequest) Decode(d *Decoder) { m.Slot = d.U32() }

// SlotResource is one resource's transferable state inside a
// SlotState: its unreleased locks, its sequencer position (NextSN),
// and its lifetime grant count (which drives the DLM-Lustre expansion
// threshold). Queued waiters are not transferred — they are redirected
// at freeze time and re-request at the new master.
type SlotResource struct {
	Resource uint64
	NextSN   uint64
	Grants   uint64
	Locks    []LockRecord
}

// SlotState is a frozen slot's full lock table — the payload a
// migration moves from source to target.
type SlotState struct {
	Slot      uint32
	Epoch     uint64 // the source's view epoch at freeze time
	Resources []SlotResource
}

// Encode implements Msg.
func (m *SlotState) Encode(e *Encoder) {
	e.U32(m.Slot)
	e.U64(m.Epoch)
	e.U32(uint32(len(m.Resources)))
	for i := range m.Resources {
		r := &m.Resources[i]
		e.U64(r.Resource)
		e.U64(r.NextSN)
		e.U64(r.Grants)
		e.U32(uint32(len(r.Locks)))
		for j := range r.Locks {
			l := &r.Locks[j]
			e.U64(l.Resource)
			e.U32(l.Client)
			e.U64(l.LockID)
			e.U8(l.Mode)
			encodeExtent(e, l.Range)
			e.U64(l.SN)
			e.U8(l.State)
			e.U8(l.Flags)
		}
	}
}

// Decode implements Msg.
func (m *SlotState) Decode(d *Decoder) {
	m.Slot = d.U32()
	m.Epoch = d.U64()
	n := d.Len32(28) // 3 u64 + locks length per resource, minimum
	if n > 0 {
		m.Resources = make([]SlotResource, n)
		for i := range m.Resources {
			r := &m.Resources[i]
			r.Resource = d.U64()
			r.NextSN = d.U64()
			r.Grants = d.U64()
			k := d.Len32(47)
			if k > 0 {
				r.Locks = make([]LockRecord, k)
				for j := range r.Locks {
					l := &r.Locks[j]
					l.Resource = d.U64()
					l.Client = d.U32()
					l.LockID = d.U64()
					l.Mode = d.U8()
					l.Range = decodeExtent(d)
					l.SN = d.U64()
					l.State = d.U8()
					l.Flags = d.U8()
				}
			}
		}
	}
}

// SlotInstall hands a frozen slot's state to the migration target,
// which takes mastership of the slot at the given post-transfer
// epoch.
type SlotInstall struct {
	Epoch uint64
	State SlotState
}

// Encode implements Msg.
func (m *SlotInstall) Encode(e *Encoder) {
	e.U64(m.Epoch)
	m.State.Encode(e)
}

// Decode implements Msg.
func (m *SlotInstall) Decode(d *Decoder) {
	m.Epoch = d.U64()
	m.State.Decode(d)
}

// SlotReportRequest asks a client to replay its held locks for the
// given slots only (server recovery after a lease takeover; the
// slot-filtered form of MReport). The reply is a LockReport.
type SlotReportRequest struct {
	Epoch uint64
	Slots []uint32
}

// Encode implements Msg.
func (m *SlotReportRequest) Encode(e *Encoder) {
	e.U64(m.Epoch)
	e.U32(uint32(len(m.Slots)))
	for _, s := range m.Slots {
		e.U32(s)
	}
}

// Decode implements Msg.
func (m *SlotReportRequest) Decode(d *Decoder) {
	m.Epoch = d.U64()
	n := d.Len32(4)
	if n > 0 {
		m.Slots = make([]uint32, n)
		for i := range m.Slots {
			m.Slots[i] = d.U32()
		}
	}
}

package device

import (
	"net"
	"sync"

	"panoptes/internal/packet"
	"panoptes/internal/pcap"
)

// Packet synthesis for the capture tap. The device synthesises the frames a
// tcpdump on wlan0 would see: the TCP handshake at connect, one data
// packet per socket write/read (payload replaced by zeros of the observed
// size — the real payloads are TLS ciphertext anyway), and a FIN at close.

const synthPayloadCap = 96 // synthesised packets carry at most this many payload bytes

var zeroPayload [synthPayloadCap]byte

func (d *Device) emit(raw []byte, err error) {
	if err != nil {
		return
	}
	if t := d.getTap(); t != nil {
		t.Packet(raw)
	}
}

func (d *Device) emitHandshake(dst net.IP, srcPort, dstPort int) {
	if d.getTap() == nil {
		return
	}
	syn, err := packet.TCPPacket(d.IP, dst, uint16(srcPort), uint16(dstPort), true, false, nil)
	d.emit(syn, err)
	synack, err := packet.TCPPacket(dst, d.IP, uint16(dstPort), uint16(srcPort), true, true, nil)
	d.emit(synack, err)
	ack, err := packet.TCPPacket(d.IP, dst, uint16(srcPort), uint16(dstPort), false, true, nil)
	d.emit(ack, err)
}

func (d *Device) emitData(egress bool, dst net.IP, srcPort, dstPort, n int) {
	if d.getTap() == nil {
		return
	}
	pl := n
	if pl > synthPayloadCap {
		pl = synthPayloadCap
	}
	var raw []byte
	var err error
	if egress {
		raw, err = packet.TCPPacket(d.IP, dst, uint16(srcPort), uint16(dstPort), false, true, zeroPayload[:pl])
	} else {
		raw, err = packet.TCPPacket(dst, d.IP, uint16(dstPort), uint16(srcPort), false, true, zeroPayload[:pl])
	}
	d.emit(raw, err)
}

func (d *Device) emitFin(dst net.IP, srcPort, dstPort int) {
	if d.getTap() == nil {
		return
	}
	raw, err := packet.Serialize(nil,
		&packet.IPv4{SrcIP: d.IP, DstIP: dst, TTL: 64},
		&packet.TCP{SrcPort: uint16(srcPort), DstPort: uint16(dstPort), FIN: true, ACK: true},
		nil)
	d.emit(raw, err)
}

func (d *Device) emitUDP(dst net.IP, dstPort int, payload []byte) {
	if d.getTap() == nil {
		return
	}
	pl := payload
	if len(pl) > synthPayloadCap {
		pl = pl[:synthPayloadCap]
	}
	raw, err := packet.UDPPacket(d.IP, dst, 30000, uint16(dstPort), pl)
	d.emit(raw, err)
}

// PcapTap is a Tap that persists packets to a libpcap stream with virtual
// timestamps.
type PcapTap struct {
	dev *Device
	mu  sync.Mutex
	w   *pcap.Writer
	n   int
}

// NewPcapTap wraps a pcap.Writer as a capture tap for the device.
func NewPcapTap(d *Device, w *pcap.Writer) *PcapTap {
	return &PcapTap{dev: d, w: w}
}

// Packet implements Tap.
func (t *PcapTap) Packet(data []byte) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := t.w.WritePacket(t.dev.Clock.Now(), data); err == nil {
		t.n++
	}
}

// Count returns the number of packets written.
func (t *PcapTap) Count() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.n
}

// CountingTap is a Tap that only counts packets; tests use it.
type CountingTap struct {
	mu sync.Mutex
	n  int
}

// Packet implements Tap.
func (t *CountingTap) Packet([]byte) { t.mu.Lock(); t.n++; t.mu.Unlock() }

// Count returns the packet count.
func (t *CountingTap) Count() int { t.mu.Lock(); defer t.mu.Unlock(); return t.n }

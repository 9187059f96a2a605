package tpcc

import "fmt"

// hostEnv is a zero-cost guest.Env over a plain host memory: the
// reference executor's memory. Words live in 4 KB chunks indexed from
// refHeap, allocated on first store, so the state stays as sparse as it
// is: at silo's medium scale, 37k nonzero words span 63 of mem.Memory's
// 64 KB pages (4 MB) but only 369 chunks (1.5 MB). Callers keep a
// reference for the life of a benchmark, so its size counts.
type hostEnv struct {
	chunks []*[512]uint64
	brk    uint64
}

// refHeap is where the reference executor's allocations start.
const refHeap = 1 << 20

func newHostEnv() *hostEnv { return &hostEnv{brk: refHeap} }

func (h *hostEnv) Load(a uint64) uint64 {
	if i := (a - refHeap) >> 12; i < uint64(len(h.chunks)) && h.chunks[i] != nil {
		return h.chunks[i][(a>>3)&511]
	}
	return 0
}

// Store panics (index out of range) outside the allocated heap.
func (h *hostEnv) Store(a, v uint64) {
	c := &h.chunks[(a-refHeap)>>12]
	if *c == nil {
		*c = new([512]uint64)
	}
	(*c)[(a>>3)&511] = v
}

func (h *hostEnv) Alloc(n uint64) uint64 {
	a := h.brk
	h.brk += (n + 63) &^ 63
	for uint64(len(h.chunks))<<12 < h.brk-refHeap {
		h.chunks = append(h.chunks, nil)
	}
	return a
}

func (h *hostEnv) Work(uint64)         {}
func (h *hostEnv) Free(uint64, uint64) {}

// Reference executes all transactions in order on a host-side copy of the
// database and returns the layout plus a loader for the expected state.
// The loader only reads, so callers may keep it and share it across
// goroutines.
func Reference(sc Scale, txns []Txn) (*Layout, func(addr uint64) uint64) {
	env := newHostEnv()
	l := Pack(sc, txns, env.Alloc, env.Store)
	for i := range txns {
		ExecTxn(env, l, uint64(i))
	}
	return l, env.Load
}

// tupleRegions enumerates every (tableName, firstTuple, tupleCount) region.
func (l *Layout) tupleRegions() []struct {
	name  string
	base  uint64
	count uint64
} {
	sc := l.Scale
	w, d, c := uint64(sc.Warehouses), uint64(sc.Districts), uint64(sc.Customers)
	mo, ml, it := uint64(sc.MaxOrders), uint64(sc.MaxLines), uint64(sc.Items)
	return []struct {
		name  string
		base  uint64
		count uint64
	}{
		{"warehouse", l.warehouse, w},
		{"district", l.district, w * d},
		{"customer", l.customer, w * d * c},
		{"item", l.item, it},
		{"stock", l.stock, w * it},
		{"order", l.order, w * d * mo},
		{"orderline", l.orderline, w * d * mo * ml},
		{"noq", l.noq, w * d},
	}
}

// CompareExact checks every logical field (version words excluded) of got
// against want. Used for the serial and Swarm flavors, whose serialization
// order is exactly transaction order.
func (l *Layout) CompareExact(got, want func(addr uint64) uint64) error {
	for _, r := range l.tupleRegions() {
		for t := uint64(0); t < r.count; t++ {
			for f := 1; f < TupleWords; f++ {
				a := r.base + t*tupleBytes + uint64(f)*8
				if g, w := got(a), want(a); g != w {
					return fmt.Errorf("tpcc: %s tuple %d word %d = %d, want %d", r.name, t, f, g, w)
				}
			}
		}
	}
	// New-order ring contents.
	sc := l.Scale
	for w := uint64(0); w < uint64(sc.Warehouses); w++ {
		for d := uint64(0); d < uint64(sc.Districts); d++ {
			for i := uint64(0); i < uint64(sc.MaxOrders); i++ {
				a := l.NORingAddr(w, d, i)
				if g, wv := got(a), want(a); g != wv {
					return fmt.Errorf("tpcc: no-ring (%d,%d)[%d] = %d, want %d", w, d, i, g, wv)
				}
			}
		}
	}
	return nil
}

// CompareCommutative checks the fields that are identical under any
// serializable order: counters, YTD sums, balances, next order ids, queue
// lengths, and per-district order/line population sums. Used for the OCC
// flavor, whose serialization order is not transaction order.
func (l *Layout) CompareCommutative(got, want func(addr uint64) uint64) error {
	sc := l.Scale
	check := func(name string, addr uint64) error {
		if g, w := got(addr), want(addr); g != w {
			return fmt.Errorf("tpcc: %s = %d, want %d", name, g, w)
		}
		return nil
	}
	for w := uint64(0); w < uint64(sc.Warehouses); w++ {
		if err := check("w_ytd", l.WarehouseAddr(w)+FWYtd*8); err != nil {
			return err
		}
		for d := uint64(0); d < uint64(sc.Districts); d++ {
			dAddr := l.DistrictAddr(w, d)
			if err := check("d_ytd", dAddr+FDYtd*8); err != nil {
				return err
			}
			if err := check("d_next_o_id", dAddr+FDNextOID*8); err != nil {
				return err
			}
			nq := l.NOQAddr(w, d)
			// Tail = number of NewOrder pushes: order-independent. (Head
			// is not: whether a Delivery finds the queue empty depends on
			// the serialization order.)
			if err := check("no_tail", nq+FNOTail*8); err != nil {
				return err
			}
			// Sum of order-line amounts in the district.
			var gs, ws uint64
			for o := uint64(0); o < uint64(sc.MaxOrders); o++ {
				for li := uint64(0); li < uint64(sc.MaxLines); li++ {
					a := l.OLAddr(w, d, o, li) + FOLAmount*8
					gs += got(a)
					ws += want(a)
				}
			}
			if gs != ws {
				return fmt.Errorf("tpcc: district (%d,%d) line amount sum %d, want %d", w, d, gs, ws)
			}
			for c := uint64(0); c < uint64(sc.Customers); c++ {
				cAddr := l.CustomerAddr(w, d, c)
				for _, f := range []uint64{FCYtdPayment, FCPaymentCnt} {
					if err := check("customer", cAddr+f*8); err != nil {
						return err
					}
				}
			}
		}
		for i := uint64(0); i < uint64(sc.Items); i++ {
			sAddr := l.StockAddr(w, i)
			// s_ytd and s_order_cnt are sums; s_quantity is not (the
			// TPC-C +91 wraparound is order-sensitive).
			for _, f := range []uint64{FSYtd, FSOrderCnt, FSRemoteCnt} {
				if err := check("stock", sAddr+f*8); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

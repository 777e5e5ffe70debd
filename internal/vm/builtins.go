package vm

import (
	"fmt"
	"math"

	"bitc/internal/ir"
)

// builtin dispatches OpBuiltin instructions. Channel and thread operations
// may block the thread; in that case the completing party delivers the
// result directly into the blocked frame's destination register.
func (v *VM) builtin(t *Thread, fr *Frame, in *ir.Instr) error {
	name := in.Str
	arg := func(i int) Value { return fr.regs[in.Args[i]] }

	switch name {
	case "print", "println":
		s := arg(0).String()
		if name == "println" {
			s += "\n"
		}
		fmt.Fprint(v.opts.Stdout, s)
		fr.regs[in.Dst] = unitVal()
		return nil

	case "min", "max":
		a, b := arg(0), arg(1)
		res := a
		less, err := v.lessThan(a, b)
		if err != nil {
			return err
		}
		if (name == "min") != less {
			res = b
		}
		fr.regs[in.Dst] = res
		return nil

	case "abs":
		a := arg(0)
		if a.K == KFloat {
			fr.regs[in.Dst] = v.boxResult(in, floatVal(math.Abs(v.loadFloat(a))))
		} else {
			x := v.loadInt(a)
			if x < 0 {
				x = -x
			}
			fr.regs[in.Dst] = v.boxResult(in, intVal(x))
		}
		return nil

	case "sqrt":
		fr.regs[in.Dst] = v.boxResult(in, floatVal(math.Sqrt(v.loadFloat(arg(0)))))
		return nil
	case "floor":
		fr.regs[in.Dst] = v.boxResult(in, floatVal(math.Floor(v.loadFloat(arg(0)))))
		return nil

	case "string-length":
		fr.regs[in.Dst] = v.boxResult(in, intVal(int64(len(arg(0).Str()))))
		return nil
	case "string-ref":
		s := arg(0).Str()
		i := v.loadInt(arg(1))
		if i < 0 || i >= int64(len(s)) {
			return trapf("string index %d out of range 0..%d", i, len(s)-1)
		}
		fr.regs[in.Dst] = v.boxResult(in, charVal(int64(s[i])))
		return nil
	case "string-append":
		a, b := arg(0).Str(), arg(1).Str()
		if n := uint64(len(a)) + uint64(len(b)); n > heapBudget {
			return trapf("heap budget exhausted: string-append of %d bytes exceeds the %d-byte budget",
				n, heapBudget)
		}
		fr.regs[in.Dst] = strVal(a + b)
		return nil
	case "substring":
		s := arg(0).Str()
		from, to := v.loadInt(arg(1)), v.loadInt(arg(2))
		if from < 0 || to < from || to > int64(len(s)) {
			return trapf("substring range %d..%d invalid for length %d", from, to, len(s))
		}
		fr.regs[in.Dst] = strVal(s[from:to])
		return nil

	case "make-chan":
		capacity := v.loadInt(arg(0))
		if capacity < 0 {
			return trapf("make-chan with negative capacity")
		}
		// The buffer grows lazily, but a capacity is a request for that
		// many values: bound it as make-vector bounds a length.
		if uint64(capacity) > heapBudget/valueBytes {
			return trapf("heap budget exhausted: make-chan of capacity %d exceeds the %d-byte budget",
				capacity, heapBudget)
		}
		o := &Object{Kind: OChan, Chan: &ChanState{Cap: int(capacity)}, Region: -1}
		v.accountAlloc(o, 32+uint64(capacity)*8)
		fr.regs[in.Dst] = refVal(o)
		return nil

	case "send":
		return v.chanSend(t, fr, in)
	case "recv":
		return v.chanRecv(t, fr, in)

	case "join":
		if t.txn != nil {
			return trapf("join inside atomic is not allowed")
		}
		tid := v.loadInt(arg(0))
		target := v.threadByID(tid)
		if target == nil || target.state == TDone {
			fr.regs[in.Dst] = unitVal()
			return nil
		}
		fr.regs[in.Dst] = unitVal() // join yields unit once the target is done
		t.state = TBlockedJoin
		t.waitTid = tid
		return nil

	case "yield":
		fr.regs[in.Dst] = unitVal()
		t.yielded = true // ends this thread's quantum at the next check
		return nil

	case "thread-id":
		fr.regs[in.Dst] = v.boxResult(in, intVal(t.ID))
		return nil

	default:
		return trapf("unimplemented builtin %s", name)
	}
}

func (v *VM) lessThan(a, b Value) (bool, error) {
	switch {
	case a.K == KString && b.K == KString:
		return a.Str() < b.Str(), nil
	case a.K == KFloat || b.K == KFloat:
		return v.loadFloat(a) < v.loadFloat(b), nil
	case a.K == KRef || b.K == KRef:
		return false, trapf("ordered comparison on references")
	default:
		return v.loadInt(a) < v.loadInt(b), nil
	}
}

func (v *VM) threadByID(id int64) *Thread {
	for _, th := range v.threads {
		if th.ID == id {
			return th
		}
	}
	return nil
}

func (v *VM) chanObj(val Value) (*ChanState, error) {
	if val.K != KRef || val.R == nil || val.R.Kind != OChan {
		return nil, trapf("channel operation on non-channel")
	}
	return val.R.Chan, nil
}

func (v *VM) chanSend(t *Thread, fr *Frame, in *ir.Instr) error {
	if t.txn != nil {
		return trapf("send inside atomic is not allowed")
	}
	ch, err := v.chanObj(fr.regs[in.Args[0]])
	if err != nil {
		return err
	}
	val := fr.regs[in.Args[1]]
	fr.regs[in.Dst] = unitVal()

	// A receiver is waiting: hand the value over directly.
	if len(ch.RecvQ) > 0 {
		rcv := ch.RecvQ[0]
		ch.RecvQ = ch.RecvQ[1:]
		v.deliverRecv(rcv, val)
		return nil
	}
	if len(ch.Buf) < ch.Cap {
		ch.Buf = append(ch.Buf, val)
		return nil
	}
	// Block until a receiver takes the value.
	t.state = TBlockedSend
	t.waitChan = ch
	t.waitVal = val
	ch.SendQ = append(ch.SendQ, t)
	return nil
}

func (v *VM) chanRecv(t *Thread, fr *Frame, in *ir.Instr) error {
	if t.txn != nil {
		return trapf("recv inside atomic is not allowed")
	}
	ch, err := v.chanObj(fr.regs[in.Args[0]])
	if err != nil {
		return err
	}
	if len(ch.Buf) > 0 {
		val := ch.Buf[0]
		ch.Buf = ch.Buf[1:]
		// Refill from a blocked sender, if any.
		if len(ch.SendQ) > 0 {
			snd := ch.SendQ[0]
			ch.SendQ = ch.SendQ[1:]
			ch.Buf = append(ch.Buf, snd.waitVal)
			snd.state = TRunnable
		}
		fr.regs[in.Dst] = val
		return nil
	}
	if len(ch.SendQ) > 0 { // unbuffered rendezvous
		snd := ch.SendQ[0]
		ch.SendQ = ch.SendQ[1:]
		fr.regs[in.Dst] = snd.waitVal
		snd.state = TRunnable
		return nil
	}
	// Block until a sender arrives.
	t.state = TBlockedRecv
	t.waitChan = ch
	t.waitDstFrame = fr
	t.waitDst = in.Dst
	ch.RecvQ = append(ch.RecvQ, t)
	return nil
}

func (v *VM) deliverRecv(rcv *Thread, val Value) {
	if rcv.waitDstFrame != nil && rcv.waitDst != ir.NoReg {
		rcv.waitDstFrame.regs[rcv.waitDst] = val
	}
	rcv.waitDstFrame = nil
	rcv.state = TRunnable
}

// Package drivers_test exercises each driver against its real device
// model through the kernel's IPC, port-I/O, and IRQ machinery — without
// the servers above them.
package drivers_test

import (
	"bytes"
	"testing"
	"time"

	"resilientos/internal/drivers/dp8390"
	"resilientos/internal/drivers/ramdisk"
	"resilientos/internal/drivers/rtl8139"
	"resilientos/internal/drivers/sata"
	"resilientos/internal/fi"
	"resilientos/internal/hw"
	"resilientos/internal/kernel"
	"resilientos/internal/proto"
	"resilientos/internal/sim"
	"resilientos/internal/ucode"
)

func driverPriv(ports kernel.PortRange, irq int) kernel.Privileges {
	return kernel.Privileges{
		AllowAllIPC: true,
		Calls: []kernel.Call{kernel.CallDevIO, kernel.CallIRQCtl,
			kernel.CallAlarm, kernel.CallSafeCopy},
		Ports: []kernel.PortRange{ports},
		IRQs:  []int{irq},
	}
}

// netRig: two NICs on a wire, one real driver per side.
type netRig struct {
	env  *sim.Env
	k    *kernel.Kernel
	a, b kernel.Endpoint
	nicA *hw.NIC
	nicB *hw.NIC
}

func newNetRig(t *testing.T, mkA, mkB func(nic *hw.NIC) func(*kernel.Ctx)) *netRig {
	t.Helper()
	env := sim.NewEnv(1)
	k := kernel.New(env)
	nicA := hw.NewNIC(env, k, hw.NICConfig{Base: 0x1000, IRQ: 9})
	nicB := hw.NewNIC(env, k, hw.NICConfig{Base: 0x1100, IRQ: 10})
	hw.Connect(env, nicA, nicB)
	ac, err := k.Spawn("drvA", driverPriv(nicA.PortRange(), nicA.IRQ()), mkA(nicA))
	if err != nil {
		t.Fatal(err)
	}
	bc, err := k.Spawn("drvB", driverPriv(nicB.PortRange(), nicB.IRQ()), mkB(nicB))
	if err != nil {
		t.Fatal(err)
	}
	return &netRig{env: env, k: k, a: ac.Endpoint(), b: bc.Endpoint(), nicA: nicA, nicB: nicB}
}

// pump exchanges frames via two client processes; returns what B's client
// received.
func exchange(t *testing.T, r *netRig, frames [][]byte) [][]byte {
	t.Helper()
	var received [][]byte
	r.k.Spawn("clientB", kernel.Privileges{AllowAllIPC: true}, func(c *kernel.Ctx) {
		if _, err := c.SendRec(r.b, kernel.Message{Type: proto.EthConf, Arg1: proto.EthConfPromisc}); err != nil {
			t.Errorf("conf B: %v", err)
			return
		}
		for {
			m, err := c.Receive(kernel.Any)
			if err != nil {
				return
			}
			if m.Type == proto.EthRecv {
				received = append(received, m.Payload)
			}
		}
	})
	r.k.Spawn("clientA", kernel.Privileges{AllowAllIPC: true}, func(c *kernel.Ctx) {
		if _, err := c.SendRec(r.a, kernel.Message{Type: proto.EthConf, Arg1: proto.EthConfPromisc}); err != nil {
			t.Errorf("conf A: %v", err)
			return
		}
		for _, f := range frames {
			_ = c.AsyncSend(r.a, kernel.Message{Type: proto.EthSend, Payload: f})
			c.Sleep(time.Millisecond)
		}
	})
	r.env.Run(10 * time.Second)
	return received
}

func TestRTL8139FrameExchange(t *testing.T) {
	r := newNetRig(t,
		func(n *hw.NIC) func(*kernel.Ctx) { return rtl8139.Binary(rtl8139.Config{NIC: n}) },
		func(n *hw.NIC) func(*kernel.Ctx) { return rtl8139.Binary(rtl8139.Config{NIC: n}) },
	)
	frames := [][]byte{[]byte("one"), []byte("two"), []byte("three")}
	got := exchange(t, r, frames)
	if len(got) != 3 {
		t.Fatalf("received %d frames, want 3", len(got))
	}
	for i := range frames {
		if !bytes.Equal(got[i], frames[i]) {
			t.Fatalf("frame %d = %q", i, got[i])
		}
	}
}

func TestDP8390FrameExchange(t *testing.T) {
	r := newNetRig(t,
		func(n *hw.NIC) func(*kernel.Ctx) { return dp8390.Binary(dp8390.Config{NIC: n}) },
		func(n *hw.NIC) func(*kernel.Ctx) { return dp8390.Binary(dp8390.Config{NIC: n}) },
	)
	var frames [][]byte
	for i := 0; i < 20; i++ {
		frames = append(frames, bytes.Repeat([]byte{byte(i)}, 100+i))
	}
	got := exchange(t, r, frames)
	if len(got) != 20 {
		t.Fatalf("received %d frames, want 20", len(got))
	}
	for i := range frames {
		if !bytes.Equal(got[i], frames[i]) {
			t.Fatalf("frame %d mismatch", i)
		}
	}
}

func TestDP8390SurvivesBenignFaultsAndCrashesOnBadOnes(t *testing.T) {
	// Inject faults into a *running* dp8390 until it dies; the VM must
	// classify the death as one of the §7.2 outcomes.
	env := sim.NewEnv(1)
	k := kernel.New(env)
	nicA := hw.NewNIC(env, k, hw.NICConfig{Base: 0x1000, IRQ: 9})
	nicB := hw.NewNIC(env, k, hw.NICConfig{Base: 0x1100, IRQ: 10})
	hw.Connect(env, nicA, nicB)
	var vm *ucode.VM
	dc, err := k.Spawn("dp", driverPriv(nicB.PortRange(), nicB.IRQ()),
		dp8390.Binary(dp8390.Config{NIC: nicB, OnVM: func(v *ucode.VM) { vm = v }}))
	if err != nil {
		t.Fatal(err)
	}
	drvEp := dc.Endpoint()
	// Feed it frames from the raw A side.
	k.Spawn("feeder", kernel.Privileges{AllowAllIPC: true}, func(c *kernel.Ctx) {
		if _, err := c.SendRec(drvEp, kernel.Message{Type: proto.EthConf, Arg1: proto.EthConfPromisc}); err != nil {
			return
		}
		for {
			nicA.Handle().SetTx([]byte("traffic"))
			nicA.PortOut(0x1000+hw.NICRegCmd, hw.NICCmdRxEnable)
			nicA.PortOut(0x1000+hw.NICRegTxGo, 1)
			c.Sleep(5 * time.Millisecond)
		}
	})
	inj := fi.New(env.Rand())
	crashed := false
	var cause kernel.Cause
	for i := 0; i < 500 && !crashed; i++ {
		env.Run(20 * time.Millisecond)
		if !k.Alive(drvEp) {
			cause, _ = k.CauseOf(drvEp)
			crashed = true
			break
		}
		if vm != nil {
			inj.InjectRandom(vm.Img)
		}
	}
	// Seed 1 crashes the driver deterministically well inside the
	// budget; a run without a crash means fault injection or death
	// classification broke.
	if !crashed {
		t.Fatal("no crash in 500 faults with this seed (driver may be wedged instead)")
	}
	switch cause.Kind {
	case kernel.CauseExit, kernel.CauseException:
	default:
		t.Fatalf("unexpected death cause %v", cause)
	}
}

func TestSATATransferViaGrant(t *testing.T) {
	env := sim.NewEnv(1)
	k := kernel.New(env)
	disk := hw.NewDisk(env, k, hw.DiskConfig{
		Base: 0x2000, IRQ: 14, Sectors: 4096, Seed: 5,
		ResetDelay: 10 * time.Millisecond,
	})
	dc, err := k.Spawn("sata", driverPriv(disk.PortRange(), disk.IRQ()),
		sata.Binary(sata.Config{Disk: disk}))
	if err != nil {
		t.Fatal(err)
	}
	drv := dc.Endpoint()
	ok := false
	k.Spawn("fs", kernel.Privileges{
		AllowAllIPC: true, Calls: []kernel.Call{kernel.CallSafeCopy},
	}, func(c *kernel.Ctx) {
		c.Sleep(time.Second) // driver init
		if re, err := c.SendRec(drv, kernel.Message{Type: proto.BdevOpen, Arg1: 0}); err != nil || re.Arg1 != proto.OK {
			t.Errorf("open: %v %d", err, re.Arg1)
			return
		}
		// Write 4 sectors, read them back.
		payload := bytes.Repeat([]byte{0xC3}, 4*hw.SectorSize)
		g := c.CreateGrant(payload, kernel.GrantRead, drv)
		re, err := c.SendRec(drv, kernel.Message{Type: proto.BdevWrite, Arg1: 100, Arg2: 4, Grant: g})
		c.RevokeGrant(g)
		if err != nil || re.Arg1 != int64(len(payload)) {
			t.Errorf("write: %v %d", err, re.Arg1)
			return
		}
		buf := make([]byte, 4*hw.SectorSize)
		g = c.CreateGrant(buf, kernel.GrantWrite, drv)
		re, err = c.SendRec(drv, kernel.Message{Type: proto.BdevRead, Arg1: 100, Arg2: 4, Grant: g})
		c.RevokeGrant(g)
		if err != nil || re.Arg1 != int64(len(buf)) {
			t.Errorf("read: %v %d", err, re.Arg1)
			return
		}
		if !bytes.Equal(buf, payload) {
			t.Error("roundtrip mismatch")
			return
		}
		// Out-of-range access fails cleanly.
		g = c.CreateGrant(buf, kernel.GrantWrite, drv)
		re, err = c.SendRec(drv, kernel.Message{Type: proto.BdevRead, Arg1: 1 << 30, Arg2: 4, Grant: g})
		c.RevokeGrant(g)
		if err != nil || re.Arg1 != proto.ErrIO {
			t.Errorf("oob read: %v %d, want ErrIO", err, re.Arg1)
			return
		}
		ok = true
	})
	env.Run(time.Minute)
	if !ok {
		t.Fatal("fs client did not finish")
	}
}

func TestRAMDiskPersistsAcrossRestart(t *testing.T) {
	env := sim.NewEnv(1)
	k := kernel.New(env)
	store := ramdisk.NewStore()
	mk := func() kernel.Endpoint {
		c, err := k.Spawn("ram", kernel.Privileges{
			AllowAllIPC: true, Calls: []kernel.Call{kernel.CallSafeCopy},
		}, ramdisk.Binary(ramdisk.Config{Backing: store}))
		if err != nil {
			t.Fatal(err)
		}
		return c.Endpoint()
	}
	first := mk()
	done := false
	k.Spawn("fs", kernel.Privileges{
		AllowAllIPC: true, Calls: []kernel.Call{kernel.CallSafeCopy, kernel.CallKill},
	}, func(c *kernel.Ctx) {
		payload := bytes.Repeat([]byte{7}, hw.SectorSize)
		g := c.CreateGrant(payload, kernel.GrantRead, first)
		if re, err := c.SendRec(first, kernel.Message{Type: proto.BdevWrite, Arg1: 9, Arg2: 1, Grant: g}); err != nil || re.Arg1 < 0 {
			t.Errorf("write: %v", err)
			return
		}
		c.RevokeGrant(g)
		// Kill the driver; contents must survive in the backing store.
		if err := c.Kill(first, kernel.SIGKILL); err != nil {
			t.Errorf("kill: %v", err)
			return
		}
		c.Sleep(10 * time.Millisecond)
		second := mk()
		c.Sleep(10 * time.Millisecond)
		buf := make([]byte, hw.SectorSize)
		g = c.CreateGrant(buf, kernel.GrantWrite, second)
		if re, err := c.SendRec(second, kernel.Message{Type: proto.BdevRead, Arg1: 9, Arg2: 1, Grant: g}); err != nil || re.Arg1 < 0 {
			t.Errorf("read: %v", err)
			return
		}
		if !bytes.Equal(buf, payload) {
			t.Error("RAM disk contents lost across driver restart")
			return
		}
		done = true
	})
	// fs needs kill rights for this test.
	env.Run(time.Minute)
	if !done {
		t.Fatal("client did not finish")
	}
}

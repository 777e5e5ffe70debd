// Kernelipc: the microkernel-flavoured workload that motivates the paper
// (the author built EROS and Coyotos). A server thread receives request
// messages over a channel, processes them inside a region (the per-request
// arena idiom kernels use), and replies; the client measures round trips.
//
// The region checker proves the per-request scratch data cannot leak, and
// the VM enforces it dynamically.
//
//	go run ./examples/kernelipc
package main

import (
	"fmt"
	"log"
	"os"

	"bitc/internal/analysis"
	"bitc/internal/core"
)

const program = `
; An IPC request: operation code and two operands. Replies carry a status
; and a result word — the classic L4-ish shape.
(defstruct request (op int64) (a int64) (b int64) (reply (chan int64)))

(define op-add int64 0)
(define op-mul int64 1)
(define op-checksum int64 2)

; Per-request scratch buffer, allocated in the request's region and dead the
; moment the reply is sent: the arena idiom the paper wants languages to own.
(defstruct scratch (acc int64) (steps int64))

(define (serve-one (r request)) unit
  (with-region arena
    (let ((s (alloc-in arena (make scratch :acc 0 :steps 0))))
      (if (= (field r op) op-add)
          (set-field! s acc (+ (field r a) (field r b)))
          (if (= (field r op) op-mul)
              (set-field! s acc (* (field r a) (field r b)))
              ; checksum: fold a over b rounds
              (begin
                (set-field! s acc (field r a))
                (dotimes (i (field r b))
                  (set-field! s acc
                    (bitxor (* (field s acc) 31) (+ i 7)))))))
      (send (field r reply) (field s acc)))))

(define (server (inbox (chan request)) (n int64)) unit
  (dotimes (i n)
    (serve-one (recv inbox))))

(define (main) int64
  (let ((inbox (make-chan 8))
        (reply (make-chan 1)))
    (let ((srv (spawn (server inbox 300))))
      (let ((mutable acc 0))
        (dotimes (i 100)
          (send inbox (make request :op op-add :a i :b i :reply reply))
          (set! acc (+ acc (recv reply))))
        (dotimes (i 100)
          (send inbox (make request :op op-mul :a i :b 3 :reply reply))
          (set! acc (+ acc (recv reply))))
        (dotimes (i 100)
          (send inbox (make request :op op-checksum :a i :b 5 :reply reply))
          (set! acc (bitxor acc (recv reply))))
        (join srv)
        acc))))
`

func main() {
	cfg := core.DefaultConfig
	cfg.Stdout = os.Stdout
	cfg.Seed = 7
	prog, err := core.Load("kernelipc.bitc", program, cfg)
	if err != nil {
		log.Fatal(err)
	}

	// Static guarantees first: no region escapes, no races on shared state.
	rep, err := prog.Analyze(analysis.Options{Enable: []string{"escape", "race"}})
	if err != nil {
		log.Fatal(err)
	}
	escapes, races := 0, 0
	for _, f := range rep.Findings {
		switch f.Code {
		case analysis.CodeEscape, analysis.CodeUseAfterExit:
			fmt.Println("escape:", f.Message)
			escapes++
		case analysis.CodeRace:
			races++
		}
	}
	if escapes != 0 {
		log.Fatal("region checker found escapes in the IPC server")
	}
	fmt.Printf("static analysis: 0 region escapes, %d potential races\n", races)

	val, machine, err := prog.Run()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("300 IPC round trips completed; folded result = %d\n", val.I)
	fmt.Printf("scheduler: %d context switches across %d instructions\n",
		machine.Stats.Switches, machine.Stats.Instrs)
	fmt.Printf("memory: %d allocations, %d of them region-allocated request scratch\n",
		machine.Stats.Allocs, machine.Stats.RegionAllocs)
	if machine.Stats.RegionAllocs < 300 {
		log.Fatalf("expected one region allocation per request, got %d", machine.Stats.RegionAllocs)
	}

	// Determinism: the same seed reproduces the interleaving exactly.
	val2, machine2, err := prog.Run()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("re-run with the same seed: result %d, switches %d (identical: %v)\n",
		val2.I, machine2.Stats.Switches, val.I == val2.I)
}

;; Effect-handler workloads: the libseff paper's benchmark shapes
;; (producer/consumer pipes, handler-chain depth sweeps, HTTP-ish
;; request storms) plus the canonical-handler stress shapes (state,
;; generators, multi-shot nondeterminism), all on the crates/effects
;; library that ships in the prelude. Every entry takes one scale
;; argument and returns a deterministic checksum, so the same programs
;; drive correctness (differential/torture) and benchmarking.

(define eff-mod 1000003)

(define (eff-range lo hi)
  (if (>= lo hi) '() (cons lo (eff-range (+ lo 1) hi))))

;; ---------------------------------------------------------------------
;; pipes: n messages through a 4-stage chain of async tasks connected
;; by bounded channels (the libseff producer/consumer pipe shape).
;; Every hop parks/wakes through the handler, so each message costs a
;; handful of captures and resumes.
;; ---------------------------------------------------------------------

(define (eff-pipes-bench n)
  (async-run
    (lambda ()
      (let ([first-ch (make-channel 2)]
            [stages 4])
        (async
          (do ([i 0 (+ i 1)]) ((= i n))
            (channel-send first-ch i))
          (channel-send first-ch 'eof))
        (let loop ([in first-ch] [s 0])
          (if (= s stages)
              (let recv ([acc 0])
                (let ([v (channel-recv in)])
                  (if (eq? v 'eof)
                      (modulo acc eff-mod)
                      (recv (+ acc v)))))
              (let ([out (make-channel 2)])
                (async
                  (let relay ()
                    (let ([v (channel-recv in)])
                      (if (eq? v 'eof)
                          (channel-send out 'eof)
                          (begin (channel-send out (+ v 1)) (relay))))))
                (loop out (+ s 1)))))))))

;; ---------------------------------------------------------------------
;; chain: handler-chain depth sweep. The operation is handled by the
;; outermost handler; every intervening handler forwards, so one
;; perform costs depth+1 capture/abort hops. Sweeps depths 0/2/4/8,
;; which is the libseff "handler stack depth" axis.
;; ---------------------------------------------------------------------

(define (eff-chain-run depth m)
  ($with-handler #t
    (list (list 'tick (lambda (x k) (k (+ x 1)))))
    #f
    (lambda ()
      (let nest ([i depth])
        (if (zero? i)
            (let loop ([j 0] [acc 0])
              (if (= j m)
                  acc
                  (loop (+ j 1) (+ acc ($perform 'tick (list j))))))
            ($with-handler #t
              (list (list 'other (lambda (x k) (k x))))
              #f
              (lambda () (nest (- i 1)))))))))

(define (eff-chain-bench n)
  (modulo (+ (eff-chain-run 0 n)
             (eff-chain-run 2 n)
             (eff-chain-run 4 n)
             (eff-chain-run 8 n))
          eff-mod))

;; ---------------------------------------------------------------------
;; storm: an HTTP-ish request storm. n request tasks are spawned at
;; once; each sleeps a deterministic pseudo-latency on the virtual
;; clock, yields once mid-"processing", and posts its response to a
;; bounded results channel the collector drains. The checksum folds in
;; the final virtual time, so scheduling order is part of the answer.
;; ---------------------------------------------------------------------

(define (eff-storm-bench n)
  (async-run
    (lambda ()
      (let ([results (make-channel 4)])
        (do ([i 0 (+ i 1)]) ((= i n))
          (async
            (async-sleep (modulo (* i 7) 13))
            (async-yield)
            (channel-send results (modulo (+ (* i i) i 17) 9973))))
        (let loop ([j 0] [acc 0])
          (if (= j n)
              (modulo (+ acc (* 31 (async-now))) eff-mod)
              (loop (+ j 1) (+ acc (channel-recv results)))))))))

;; ---------------------------------------------------------------------
;; state: the deep state handler in a tight get/put loop — one capture
;; and one resume per operation, the minimal handler round-trip.
;; ---------------------------------------------------------------------

(define (eff-state-bench n)
  (with-state 0
    (lambda ()
      (let loop ([i 0])
        (if (= i n)
            (modulo (state-get) eff-mod)
            (begin
              (state-put (+ (state-get) i))
              (loop (+ i 1))))))))

;; ---------------------------------------------------------------------
;; gen: a two-stage generator pipeline (numbers -> filtered/mapped),
;; O(1) handler frames per step; the coroutine-switch shape.
;; ---------------------------------------------------------------------

(define (eff-gen-bench n)
  (let* ([nums (make-generator
                (lambda (yield)
                  (do ([i 0 (+ i 1)]) ((= i n) 'out)
                    (yield i))))]
         [evens (make-generator
                 (lambda (yield)
                   (let loop ()
                     (let ([v (nums)])
                       (if (eq? v 'done)
                           'out
                           (begin
                             (when (even? v) (yield (* v 3)))
                             (loop)))))))])
    (let loop ([acc 0])
      (let ([v (evens)])
        (if (eq? v 'done)
            (modulo acc eff-mod)
            (loop (+ acc v)))))))

;; ---------------------------------------------------------------------
;; amb: multi-shot nondeterministic search (Pythagorean triples with
;; legs up to n) — every choice point's continuation is resumed once
;; per alternative, the reify-and-copy worst case.
;; ---------------------------------------------------------------------

(define (eff-amb-bench n)
  (let ([sols (amb-collect
               (lambda ()
                 (let* ([a (amb-choose (eff-range 1 (+ n 1)))]
                        [b (amb-choose (eff-range a (+ n 1)))]
                        [c (amb-choose (eff-range b (+ n 1)))])
                   (amb-require (= (+ (* a a) (* b b)) (* c c)))
                   (list a b c))))])
    (+ (* 100 (length sols))
       (modulo (fold-left + 0 (map (lambda (s) (apply + s)) sols)) 97))))

;; ---------------------------------------------------------------------
;; deep: perform across a deep inert stack. 1800 non-tail frames are
;; built once under the state handler, then every get/put captures and
;; re-enters the whole tower — the shape where stack-management
;; strategy dominates: a one-shot-fused capture freezes the tower with
;; a pointer move (copying only on resume), while reify-and-copy clones
;; all 1800 frames at capture *and* at resume, every operation. The
;; depth stays below the segment split limit so the tower is one
;; contiguous segment.
;; ---------------------------------------------------------------------

(define (eff-deep-dig depth thunk)
  (if (zero? depth)
      (thunk)
      (+ 1 (eff-deep-dig (- depth 1) thunk))))

(define (eff-deep-bench n)
  (with-state 0
    (lambda ()
      (eff-deep-dig 1800
        (lambda ()
          (let loop ([i 0])
            (if (= i n)
                (modulo (state-get) eff-mod)
                (begin
                  (state-put (+ (state-get) i))
                  (loop (+ i 1))))))))))

;; ---------------------------------------------------------------------
;; shift/reset: the classic delimited-control visitor — nondeterministic
;; walk encoded with shift, resumed twice per node.
;; ---------------------------------------------------------------------

(define (eff-shift-bench n)
  (let loop ([i 0] [acc 0])
    (if (= i n)
        (modulo acc eff-mod)
        (loop (+ i 1)
              (+ acc (reset (+ 1 (shift k (+ (k i) (k (+ i 1)))))))))))

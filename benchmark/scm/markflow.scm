;; Workloads for the interprocedural mark-flow optimizer (the eighth
;; engine config). Every shape here is one the §7.2 *local*
;; categorization cannot improve — a non-tail `with-continuation-mark`
;; whose body calls a separately defined helper, forcing the paper's
;; compiler to reify the metacontinuation at each call — so any
;; reduction in reifications or attachment pushes is attributable to
;; the whole-program analysis alone.

(define (mf-leaf a b) (+ a (* b 2)))

;; Key observed by a defined (reachable) observer: the mark must stay,
;; but the helper call cannot observe it, so the optimizer replaces
;; reify-on-call with plain call + pop.
(define (mf-observe) (continuation-mark-set-first #f 'mf-depth 0))
(define (mf-observed-work n acc)
  (if (zero? n)
      acc
      (mf-observed-work (- n 1)
                        (+ 1 (with-continuation-mark 'mf-depth n
                               (mf-leaf acc n))))))
(define (mf-observed-bench n) (+ (mf-observed-work n 0) (mf-observe)))

;; Key set but never observed anywhere in the program: proven dead,
;; the whole `with-continuation-mark` is elided.
(define (mf-dead-work n acc)
  (if (zero? n)
      acc
      (mf-dead-work (- n 1)
                    (+ 1 (with-continuation-mark 'mf-unread n
                           (mf-leaf acc n))))))
(define (mf-dead-bench n) (mf-dead-work n 0))

;; One live key (read inside its extent on every iteration) and one
;; dead key in the same frame: the dead key is elided while the live
;; one keeps exact first-mark semantics.
(define (mf-probe) (continuation-mark-set-first #f 'mf-live -1))
(define (mf-mixed-work n acc)
  (if (zero? n)
      acc
      (mf-mixed-work (- n 1)
                     (+ 1 (with-continuation-mark 'mf-dead n
                            (with-continuation-mark 'mf-live n
                              (+ (mf-probe) (mf-leaf acc n))))))))
(define (mf-mixed-bench n) (mf-mixed-work n 0))

;; Figure 5 microbenchmarks: continuation-mark operations at the Racket
;; level (with-continuation-mark + the mark-set API). Runs on both the
;; attachments engine ("Racket CS") and the eager mark-stack engine
;; ("old Racket").

(define (mark-ident x) x)          ; non-inlined helper

;; ---- base lines ----

(define (mbase-loop-bench n)
  (if (zero? n) 'done (mbase-loop-bench (- n 1))))

(define (mbase-deep-bench n)
  (if (zero? n) 0 (+ 1 (mbase-deep-bench (- n 1)))))

(define (mbase-arg-call-loop-bench n)
  (if (zero? n) 'done (mbase-arg-call-loop-bench (mark-ident (- n 1)))))

;; ---- with-continuation-mark ----

;; wcm around the recursive tail call.
(define (mset-loop-bench n)
  (if (zero? n)
      'done
      (with-continuation-mark 'key n
        (mset-loop-bench (- n 1)))))

;; deep recursion, wcm in non-tail position over a primitive body.
(define (mset-nontail-prim-bench n)
  (if (zero? n)
      0
      (+ 1 (with-continuation-mark 'key n (+ 0 n))
         (mset-nontail-prim-bench (- n 1)) (- 0 n))))

;; deep recursion, wcm in tail position, no tail call in body.
(define (mset-tail-notail-bench n)
  (if (zero? n)
      0
      (with-continuation-mark 'key n
        (+ 1 (mset-tail-notail-bench (- n 1))))))

;; deep recursion, wcm non-tail with a tail call in the body.
(define (mset-nontail-tail-bench n)
  (if (zero? n)
      0
      (+ 1 (with-continuation-mark 'key n
             (mset-nontail-tail-bench (- n 1))))))

;; loop: wcm around the argument, argument is a call.
(define (mset-arg-call-loop-bench n)
  (if (zero? n)
      'done
      (mset-arg-call-loop-bench
       (with-continuation-mark 'key n (mark-ident (- n 1))))))

;; loop: wcm around the argument, argument is a primitive.
(define (mset-arg-prim-loop-bench n)
  (if (zero? n)
      'done
      (mset-arg-prim-loop-bench
       (with-continuation-mark 'key n (- n 1)))))

;; ---- mark lookups ----

;; continuation-mark-set-first with no mark anywhere.
(define (mfirst-none-loop-bench n)
  (if (zero? n)
      'done
      (begin
        (continuation-mark-set-first #f 'missing-key 'none)
        (mfirst-none-loop-bench (- n 1)))))

;; continuation-mark-set-first with a shallow mark present.
(define (mfirst-some-loop-bench n)
  (with-continuation-mark 'key 'present
    (mfirst-some-inner n)))

(define (mfirst-some-inner n)
  (if (zero? n)
      'done
      (begin
        (continuation-mark-set-first #f 'key 'none)
        (mfirst-some-inner (- n 1)))))

;; continuation-mark-set-first where the newest mark is *deep*: build a
;; deep continuation with the mark at the old end, then look it up
;; repeatedly — exercises the §7.5 path-compression cache (amortized
;; constant time "no matter how old the newest frame").
(define (mfirst-deep-loop-bench n)
  (with-continuation-mark 'key 'deep-mark
    (mfirst-deep-grow 200 n)))

(define (mfirst-deep-grow depth n)
  (if (zero? depth)
      (mfirst-deep-inner n)
      (+ 0 (mfirst-deep-grow (- depth 1) n))))

(define (mfirst-deep-inner n)
  (if (zero? n)
      0
      (begin
        (continuation-mark-set-first #f 'key 'none)
        (mfirst-deep-inner (- n 1)))))

;; call-with-immediate-continuation-mark, absent and present.
(define (mimmed-none-loop-bench n)
  (if (zero? n)
      'done
      (call-with-immediate-continuation-mark 'key
        (lambda (v) (mimmed-none-loop-bench (- n 1)))
        'none)))

(define (mimmed-some-loop-bench n)
  (if (zero? n)
      'done
      (with-continuation-mark 'key n
        (call-with-immediate-continuation-mark 'key
          (lambda (v) (mimmed-some-loop-bench (- n 1)))
          'none))))

;; Figure 4 microbenchmarks: raw continuation-attachment operations.
;; Each `(X-bench n)` runs n iterations (loops) or a depth-n recursion
;; and returns a small checksum so results can be validated.

(define (ident x) x)               ; non-inlined helper for *-arg-call

;; ---- base (no attachments) ----

(define (base-loop-bench n)
  (if (zero? n) 'done (base-loop-bench (- n 1))))

(define (base-callcc-loop-bench n)
  (if (zero? n)
      'done
      (begin (call/cc (lambda (k) #f))
             (base-callcc-loop-bench (- n 1)))))

(define (base-deep-bench n)
  (if (zero? n) 0 (+ 1 (base-deep-bench (- n 1)))))

(define (base-callcc-deep-bench n)
  (if (zero? n)
      (call/cc (lambda (k) 0))
      (+ 1 (base-callcc-deep-bench (- n 1)))))

;; ---- attachment loops (set/get/consume in tail position) ----

(define (set-loop-bench n)
  (if (zero? n)
      'done
      (call-setting-continuation-attachment n
        (lambda () (set-loop-bench (- n 1))))))

(define (get-loop-bench n)
  (if (zero? n)
      'done
      (call-getting-continuation-attachment 0
        (lambda (v) (get-loop-bench (- n 1))))))

(define (get-has-loop-bench n)
  (if (zero? n)
      'done
      (call-setting-continuation-attachment n
        (lambda ()
          (call-getting-continuation-attachment 0
            (lambda (v) (get-has-loop-bench (- n 1))))))))

(define (get-set-loop-bench n)
  (if (zero? n)
      'done
      (call-getting-continuation-attachment 0
        (lambda (v)
          (call-setting-continuation-attachment (if v n 0)
            (lambda () (get-set-loop-bench (- n 1))))))))

(define (consume-set-loop-bench n)
  (if (zero? n)
      'done
      (call-consuming-continuation-attachment 0
        (lambda (v)
          (call-setting-continuation-attachment (if v n 0)
            (lambda () (consume-set-loop-bench (- n 1))))))))

;; ---- deep recursions with an attachment per frame ----

;; set in non-tail position, no tail call in the body (§7.2 case c).
(define (set-nontail-notail-bench n)
  (if (zero? n)
      0
      (+ 1 (call-setting-continuation-attachment n
             (lambda () (+ 0 (set-nontail-notail-bench (- n 1))))))))

;; set in tail position, body without a tail call (§7.2 case a).
(define (set-tail-notail-bench n)
  (if (zero? n)
      0
      (call-setting-continuation-attachment n
        (lambda () (+ 1 (set-tail-notail-bench (- n 1)))))))

;; set in non-tail position with a tail call in the body (§7.2 case b).
(define (set-nontail-tail-bench n)
  (if (zero? n)
      0
      (+ 1 (call-setting-continuation-attachment n
             (lambda () (set-nontail-tail-bench (- n 1)))))))

;; ---- loops with a set around the recursive call's argument ----

(define (loop-arg-call-bench n)
  (if (zero? n)
      'done
      (loop-arg-call-bench
       (call-setting-continuation-attachment n
         (lambda () (ident (- n 1)))))))

(define (loop-arg-prim-bench n)
  (if (zero? n)
      'done
      (loop-arg-prim-bench
       (call-setting-continuation-attachment n
         (lambda () (- n 1))))))

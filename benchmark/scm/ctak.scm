;; The classic ctak benchmark (§8.1): tak with every return routed
;; through a captured continuation. Continuation-capture intensive.

(define (ctak x y z)
  (call/cc (lambda (k) (ctak-aux k x y z))))

(define (ctak-aux k x y z)
  (if (not (< y x))
      (k z)
      (call/cc
       (lambda (k)
         (ctak-aux
          k
          (call/cc (lambda (k) (ctak-aux k (- x 1) y z)))
          (call/cc (lambda (k) (ctak-aux k (- y 1) z x)))
          (call/cc (lambda (k) (ctak-aux k (- z 1) x y))))))))

;; Standard size is (ctak 18 12 6); scaled sizes used for timing.
(define (ctak-bench n)
  (cond [(= n 0) (ctak 12 8 4)]
        [(= n 1) (ctak 15 10 5)]
        [(= n 2) (ctak 18 12 6)]
        [else (ctak 12 8 4)]))

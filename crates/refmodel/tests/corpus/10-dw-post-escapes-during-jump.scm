;; An after-thunk that escapes while a continuation jump runs it: the
;; jump to k1 leaves the extent and runs the after-thunk, whose own jump
;; to k0 lands instead. The smallest program of the differential
;; generator with an escaping after-thunk reached by a jump.
(define dw-log '())
(define (note t) (set! dw-log (cons t dw-log)))
(define result
  (call/cc
    (lambda (k0)
      (call/cc
        (lambda (k1)
          (dynamic-wind
            (lambda () (note 'pre0))
            (lambda () (k1 1))
            (lambda () (note 'post0) (k0 2))))))))
(cons result dw-log)

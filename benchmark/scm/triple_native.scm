;; The triple delimited-continuation benchmark (figure 1), "native"
;; variant: finds all (i j k), 0 <= i <= j <= k <= n, with i+j+k = n,
;; exploring the space with shift/reset over the engine's built-in
;; multi-prompt delimited control — two prompt tags for the two kinds of
;; choices, explored in a deterministic order.

(define (nt-reset tag thunk) (%call-with-prompt tag thunk (lambda (v) v)))

(define (nt-shift tag f)
  (%call-with-composable-continuation tag
    (lambda (k)
      (%abort tag
              (f (lambda (v) (nt-reset tag (lambda () (k v)))))))))

;; Sum k(i) over the integer range [lo, hi].
(define (nt-choice lo hi tag)
  (nt-shift tag
    (lambda (k)
      (let loop ([i lo] [count 0])
        (if (> i hi)
            count
            (loop (+ i 1) (+ count (k i))))))))

(define (triple-native n)
  (nt-reset 'p1
    (lambda ()
      (let ([i (nt-choice 0 n 'p1)])
        (nt-reset 'p2
          (lambda ()
            (let* ([j (nt-choice i n 'p2)]
                   [k (- n i j)])
              (if (and (>= k j) (<= k n)) 1 0))))))))

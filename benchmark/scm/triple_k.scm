;; The triple benchmark, "[K]" variant: nondeterministic choice by
;; explicit backtracking over a stack of failure continuations captured
;; with call/cc (amb-style), standing in for Kiselyov's library
;; implementation of delimited control. Same deterministic search order.

(define (triple-k n)
  (let ([fails '()]
        [count 0])
    (call/cc
     (lambda (done)
       (define (fail)
         (if (null? fails)
             (done count)
             (let ([f (car fails)])
               (set! fails (cdr fails))
               (f))))
       (define (choose lo hi)
         (call/cc
          (lambda (k)
            (define (try i)
              (if (> i hi)
                  (fail)
                  (begin
                    (set! fails (cons (lambda () (try (+ i 1))) fails))
                    (k i))))
            (try lo))))
       (let* ([i (choose 0 n)]
              [j (choose i n)]
              [k (- n i j)])
         (if (and (>= k j) (<= k n))
             (set! count (+ count 1))
             (void))
         (fail))))))

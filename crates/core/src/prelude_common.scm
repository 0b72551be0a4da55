;; Common runtime library: list utilities, dynamic-wind, and helpers
;; shared by both mark models. Loaded before the model-specific marks
;; layer and the feature libraries.

;; ---------------------------------------------------------------------
;; Higher-order list utilities (natives cannot call closures, so these
;; live in Scheme).
;; ---------------------------------------------------------------------

(define (map f l . more)
  (define (map1 f l)
    (if (null? l) '() (cons (f (car l)) (map1 f (cdr l)))))
  (define (map2 f a b)
    (if (or (null? a) (null? b))
        '()
        (cons (f (car a) (car b)) (map2 f (cdr a) (cdr b)))))
  (cond [(null? more) (map1 f l)]
        [(null? (cdr more)) (map2 f l (car more))]
        [else (error "map: at most two lists supported")]))

(define (for-each f l . more)
  (cond [(null? more)
         (let loop ([l l])
           (if (null? l) (void) (begin (f (car l)) (loop (cdr l)))))]
        [(null? (cdr more))
         (let loop ([a l] [b (car more)])
           (if (or (null? a) (null? b))
               (void)
               (begin (f (car a) (car b)) (loop (cdr a) (cdr b)))))]
        [else (error "for-each: at most two lists supported")]))

(define (filter pred l)
  (cond [(null? l) '()]
        [(pred (car l)) (cons (car l) (filter pred (cdr l)))]
        [else (filter pred (cdr l))]))

(define (fold-left f init l)
  (if (null? l) init (fold-left f (f init (car l)) (cdr l))))

(define (fold-right f init l)
  (if (null? l) init (f (car l) (fold-right f init (cdr l)))))

(define (iota n)
  (let loop ([i (- n 1)] [acc '()])
    (if (< i 0) acc (loop (- i 1) (cons i acc)))))

(define (last-pair l)
  (if (pair? (cdr l)) (last-pair (cdr l)) l))

(define (list-copy l)
  (if (pair? l) (cons (car l) (list-copy (cdr l))) l))

(define (vector-map f v)
  (let* ([n (vector-length v)] [out (make-vector n 0)])
    (let loop ([i 0])
      (if (= i n)
          out
          (begin (vector-set! out i (f (vector-ref v i)))
                 (loop (+ i 1)))))))

(define (vector-for-each f v)
  (let ([n (vector-length v)])
    (let loop ([i 0])
      (if (= i n)
          (void)
          (begin (f (vector-ref v i)) (loop (+ i 1)))))))

;; ---------------------------------------------------------------------
;; dynamic-wind over the machine's winder stack. Winder records carry the
;; marks of this call's continuation (paper footnote 4), which a
;; continuation jump restores while it runs one of the thunks.
;; ---------------------------------------------------------------------

(define (dynamic-wind pre thunk post)
  (pre)
  ($push-winder pre post)
  (let ([r (thunk)])
    ($pop-winder)
    (post)
    r))

;; Continuation jumps across winders (Racket CS's `wind-to`). A jump to k
;; with extents to leave or enter calls ($wind-to k v #f) in its own
;; continuation instead of jumping. Each step leaves the innermost extent
;; and runs its after-thunk, or runs the outermost pending before-thunk
;; and then enters its extent; the thunk is an ordinary call under its
;; winder's marks, and `done` is the step whose thunk just returned. Once
;; the winder stacks agree, (k v) jumps, leaving the next prompt or
;; landing. The machine calls this procedure through its global slot,
;; which refuses a second definition.
(define ($wind-to k v done)
  (let ([step ($wind-step! k done)])
    (if step
        (begin ($call-winder-thunk step)
               ($wind-to k v step))
        (k v))))

;; Note: the `call-*-continuation-attachment` global aliases are installed
;; by the engine in Rust (not defined here) so that the compiler's
;; immediate-lambda recognition is never suppressed by a user-level
;; redefinition check.

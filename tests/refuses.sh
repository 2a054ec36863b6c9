# Shell checks for the command-line refusals, read by the CI steps with `. tests/refuses.sh`.
#
#   refuses ARGS...          `python -m loophom.cli ARGS` exits 2 within 10 s
#   refuses_briefly ARGS...  the same, with a stderr of under 200 bytes

refuses() {
  timeout 10 python -m loophom.cli "$@" > /dev/null 2>&1 && code=0 || code=$?
  [ "$code" = 2 ] || { echo "exit $code, not 2: loophom $*"; exit 1; }
}

refuses_briefly() {
  err="$(timeout 10 python -m loophom.cli "$@" 2>&1 > /dev/null)" && code=0 || code=$?
  [ "$code" = 2 ] || { echo "exit $code, not 2: loophom $*"; exit 1; }
  bytes="$(printf '%s\n' "$err" | wc -c)"
  [ "$bytes" -lt 200 ] || { echo "$bytes bytes of stderr: loophom $*"; exit 1; }
}

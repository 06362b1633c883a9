let value = Deadfix.Used.used
